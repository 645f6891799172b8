"""Finite posets: validation, subposets, bounds, enumeration, isomorphism,
and the one backtracking search for monotone maps between them.

Element identifiers are opaque strings.  The order relation is stored
reflexive-transitively closed; the `elements` tuple fixes the canonical
iteration order used for all deterministic tie-breaking downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

Pair = tuple[str, str]

#: counts of poset isomorphism classes by size, used as an enumeration oracle
POSET_CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318)


@dataclass(frozen=True)
class Poset:
    elements: tuple[str, ...]
    le: frozenset[Pair]

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _down(self) -> dict[str, frozenset[str]]:
        down: dict[str, set[str]] = {x: set() for x in self.elements}
        for a, b in self.le:
            down[b].add(a)
        return {x: frozenset(s) for x, s in down.items()}

    @cached_property
    def _up(self) -> dict[str, frozenset[str]]:
        up: dict[str, set[str]] = {x: set() for x in self.elements}
        for a, b in self.le:
            up[a].add(b)
        return {x: frozenset(s) for x, s in up.items()}

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Down-set and up-set bitmasks over element indices."""
        idx = self.index
        down = [0] * len(self.elements)
        up = [0] * len(self.elements)
        for a, b in self.le:
            down[idx[b]] |= 1 << idx[a]
            up[idx[a]] |= 1 << idx[b]
        return tuple(down), tuple(up)

    @cached_property
    def _mask_index(self) -> tuple[dict[int, int], dict[int, int]]:
        """Each element's index keyed by its down-set mask, and keyed by its
        up-set mask; both are unique by antisymmetry."""
        down, up = self._masks
        return (
            {m: i for i, m in enumerate(down)},
            {m: i for i, m in enumerate(up)},
        )

    @cached_property
    def _extension(self) -> tuple[int, ...]:
        """Element indices along linear_extension()."""
        return tuple(self.index[x] for x in self.linear_extension())

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self.index

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.le

    def strictly_below(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.le

    def comparable(self, x: str, y: str) -> bool:
        return (x, y) in self.le or (y, x) in self.le

    def down_of(self, xs: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for x in xs:
            out |= self._down[x]
        return frozenset(out)

    def up_of(self, xs: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for x in xs:
            out |= self._up[x]
        return frozenset(out)

    def interval(self, x: str, y: str) -> frozenset[str]:
        return self._up[x] & self._down[y]

    def minimals(self) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self._down[x] == frozenset({x}))

    def maximals(self) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self._up[x] == frozenset({x}))

    def _bound(self, xs: Iterable[str], side: int) -> str | None:
        """The point whose down-set (side 0) or up-set (side 1) is the
        common one of `xs`: their meet or join, if it exists."""
        masks = self._masks[side]
        common = (1 << len(self.elements)) - 1
        for x in xs:
            common &= masks[self.index[x]]
        i = self._mask_index[side].get(common)
        return None if i is None else self.elements[i]

    def join(self, xs: Iterable[str]) -> str | None:
        """Least upper bound of `xs` in this poset, or None if absent.

        join([]) is the bottom element when one exists.
        """
        return self._bound(xs, 1)

    def meet(self, xs: Iterable[str]) -> str | None:
        return self._bound(xs, 0)

    def bottom(self) -> str | None:
        return self.join(())

    def top(self) -> str | None:
        return self.meet(())

    def covers(self) -> tuple[Pair, ...]:
        """Cover pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a in self.elements:
            for b in self.elements:
                if a == b or not self.leq(a, b):
                    continue
                between = self._up[a] & self._down[b] - {a, b}
                if not between:
                    out.append((a, b))
        out.sort(key=lambda p: (self.index[p[0]], self.index[p[1]]))
        return tuple(out)

    def dual(self) -> "Poset":
        return Poset(self.elements, frozenset((b, a) for a, b in self.le))

    def restrict(self, keep: Iterable[str]) -> "Poset":
        """Induced subposet; element order is inherited from this poset."""
        keep_set = set(keep)
        unknown = keep_set - set(self.elements)
        if unknown:
            raise ValidationError(
                f"unknown element {min(unknown)!r}", witness=min(unknown)
            )
        elems = tuple(x for x in self.elements if x in keep_set)
        le = frozenset((a, b) for a, b in self.le if a in keep_set and b in keep_set)
        return Poset(elems, le)

    def linear_extension(self) -> tuple[str, ...]:
        """Canonical linear extension: by downset size, then input order."""
        return tuple(
            sorted(self.elements, key=lambda x: (len(self._down[x]), self.index[x]))
        )


@dataclass(frozen=True)
class MonotoneMap:
    dom: Poset
    cod: Poset
    mapping: tuple[Pair, ...]

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def __call__(self, x: str) -> str:
        return self.as_dict[x]

    @cached_property
    def image(self) -> frozenset[str]:
        return frozenset(self.as_dict.values())

    def is_identity(self) -> bool:
        return self.dom == self.cod and all(a == b for a, b in self.mapping)

    def check(self) -> None:
        f = self.as_dict
        if set(f) != set(self.dom.elements):
            raise ValidationError("map is not total on its domain")
        for v in f.values():
            if v not in self.cod:
                raise ValidationError(f"image element {v!r} not in codomain", v)
        for x, y in self.dom.le:
            if not self.cod.leq(f[x], f[y]):
                raise ValidationError(
                    f"monotonicity fails on {x!r} <= {y!r}", witness=(x, y)
                )


def make_monotone_map(dom: Poset, cod: Poset, mapping: dict[str, str]) -> MonotoneMap:
    return MonotoneMap(dom, cod, tuple((x, mapping[x]) for x in dom.elements))


def validate_monotone_map(
    dom: Poset, cod: Poset, mapping: dict[str, str]
) -> MonotoneMap:
    f = make_monotone_map(dom, cod, mapping)
    f.check()
    return f


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f; domains must chain."""
    if f.cod != g.dom:
        raise ValidationError("composition mismatch: cod(f) != dom(g)")
    return make_monotone_map(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})


def identity_map(p: Poset) -> MonotoneMap:
    return make_monotone_map(p, p, {x: x for x in p.elements})


def validate_poset(
    elements: Sequence[str], pairs: Iterable[Pair], mode: str = "covers"
) -> Poset:
    """Build a Poset from raw data.

    mode "covers": reflexive-transitive closure is computed, then
    antisymmetry is checked.  mode "le": the relation is taken as given
    (reflexive pairs may be omitted) and transitivity gaps are errors.
    """
    if mode not in ("covers", "le"):
        raise ValidationError(f"unknown closure mode {mode!r}")
    elems = tuple(elements)
    position: dict[str, int] = {}
    for x in elems:
        if x in position:
            raise ValidationError(f"duplicate element {x!r}", witness=x)
        position[x] = len(position)
    pair_list = list(pairs)
    for a, b in pair_list:
        if a not in position or b not in position:
            bad = a if a not in position else b
            raise ValidationError(f"dangling pair ({a!r}, {b!r})", witness=bad)

    succ: dict[str, set[str]] = {x: {x} for x in elems}
    for a, b in pair_list:
        succ[a].add(b)

    if mode == "covers":
        changed = True
        while changed:
            changed = False
            for x in elems:
                extra = set()
                for y in succ[x]:
                    extra |= succ[y]
                if not extra <= succ[x]:
                    succ[x] |= extra
                    changed = True
    else:
        for x in elems:
            gaps = [y for y in succ[x] if not succ[y] <= succ[x]]
            if gaps:
                # witnesses are taken in element order, not set order
                y = min(gaps, key=position.__getitem__)
                z = min(succ[y] - succ[x])
                raise ValidationError(
                    f"transitivity gap: {x!r} <= {y!r} <= {z!r} "
                    f"but ({x!r}, {z!r}) missing",
                    witness=(x, y, z),
                )

    for x in elems:
        cycle = [y for y in succ[x] if x != y and x in succ[y]]
        if cycle:
            y = min(cycle, key=position.__getitem__)
            raise ValidationError(
                f"antisymmetry violation: cycle through {x!r} and {y!r}",
                witness=(x, y),
            )

    le = frozenset((x, y) for x in elems for y in succ[x])
    return Poset(elems, le)


@dataclass(frozen=True)
class LatticeReport:
    is_nonempty_lattice: bool
    is_meet_semilattice: bool
    witness: Pair | None


def lattice_report(p: Poset) -> LatticeReport:
    """Pairwise join/meet diagnostics.

    The witness is the first pair, in canonical order, lacking a join or
    a meet.  The empty poset is not a nonempty lattice.
    """
    if not p.elements:
        return LatticeReport(False, False, None)
    down, up = p._masks
    by_down, by_up = p._mask_index
    witness = None
    is_meet = True
    for i, j in combinations(range(len(p.elements)), 2):
        no_meet = (down[i] & down[j]) not in by_down
        if no_meet or (up[i] & up[j]) not in by_up:
            if witness is None:
                witness = (p.elements[i], p.elements[j])
            if no_meet:
                is_meet = False
                break  # no later pair changes the report
    return LatticeReport(witness is None, is_meet, witness)


def is_three_complete(p: Poset) -> tuple[bool, frozenset[str] | None]:
    """Whether every nonempty pairwise-bounded subset has a supremum.

    On a finite poset that holds exactly when (a) every bounded pair has
    a join and (b) every pairwise-bounded triple is bounded: replacing
    two members of a pairwise-bounded set by their join keeps it
    pairwise bounded, by (b), with the same upper bounds, so induction on
    size gives the join of the whole set.  The witness is the first
    bounded pair without a join, in element order; failing that, the
    first pairwise-bounded triple without an upper bound.
    """
    elems = p.elements
    n = len(elems)
    up = p._masks[1]
    by_up = p._mask_index[1]
    # bnd[i]: the points that share an upper bound with i
    bnd = [sum(1 << j for j in range(n) if u & up[j]) for u in up]
    joins = []
    for i in range(n):
        later = bnd[i] >> (i + 1) << (i + 1)
        while later:
            low = later & -later
            later ^= low
            j = low.bit_length() - 1
            m = by_up.get(up[i] & up[j])
            if m is None:
                return False, frozenset((elems[i], elems[j]))
            joins.append((i, j, m))
    for i, j, m in joins:
        # with m the join of i and j, {i, j, k} is bounded iff k and m are
        bad = (bnd[i] & bnd[j] & ~bnd[m]) >> (j + 1)
        if bad:
            k = j + (bad & -bad).bit_length()
            return False, frozenset((elems[i], elems[j], elems[k]))
    return True, None


def _transitive_masks(n: int) -> Iterator[tuple[int, ...]]:
    """Successor bitmasks of all transitive strict orders refining 0<1<...<n-1."""
    if n == 0:
        yield ()
        return
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    for mask in range(1 << m):
        succ = [0] * n
        for k in range(m):
            if mask >> k & 1:
                i, j = pairs[k]
                succ[i] |= 1 << j
        ok = True
        for i in range(n):
            si = succ[i]
            rest = si
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if succ[j] & ~si:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(succ)


def _poset_from_mask(succ: tuple[int, ...]) -> Poset:
    n = len(succ)
    elems = tuple(str(i) for i in range(n))
    le = set()
    for i in range(n):
        le.add((elems[i], elems[i]))
        for j in range(n):
            if succ[i] >> j & 1:
                le.add((elems[i], elems[j]))
    return Poset(elems, frozenset(le))


def _iso_signature(p: Poset):
    degs = sorted((len(p._down[x]), len(p._up[x])) for x in p.elements)
    return len(p.elements), len(p.le), tuple(degs)


def enumerate_posets_upto(k: int) -> Iterator[Poset]:
    """All posets with at most k elements, one per isomorphism class.

    Every poset has a linear extension, so classes are harvested from
    orders refining a fixed linear order and deduplicated up to
    isomorphism.  Deterministic output order.
    """
    for n in range(k + 1):
        buckets: dict[object, list[Poset]] = {}
        for succ in _transitive_masks(n):
            cand = _poset_from_mask(succ)
            sig = _iso_signature(cand)
            known = buckets.setdefault(sig, [])
            if not any(find_isomorphism(cand, rep) is not None for rep in known):
                known.append(cand)
                yield cand


def search_maps(
    dom: Poset,
    cod: Poset,
    allowed: dict[str, Iterable[str]] | None = None,
    dom_inv: dict[str, str] | None = None,
    cod_inv: dict[str, str] | None = None,
    injective: bool = False,
) -> Iterator[dict[str, str]]:
    """Every monotone map dom -> cod meeting the constraints, as a dict.

    Points are assigned along `dom.linear_extension()` and values tried
    in `cod.elements` order, so maps come out in lexicographic order of
    their values along that extension.  `allowed` restricts the value of
    a point to the given candidates.  With both involutions given, each
    point is assigned together with its involute (fixed points only to
    fixed points), so every map commutes with them.  `injective` rejects
    repeated values.  Backtracking keeps an explicit stack, so deep
    domains do not hit the recursion limit.
    """
    ext = dom._extension
    n = len(ext)
    down, up = dom._masks
    values = cod.elements
    cdown, cup = cod._masks
    cand = [(1 << len(values)) - 1] * n
    if allowed is not None:
        for x, vs in allowed.items():
            m = 0
            for v in vs:
                m |= 1 << cod.index[v]
            cand[dom.index[x]] = m
    mate = list(range(n))
    cmate: list[int] = []
    if dom_inv is not None:
        cmate = [cod.index[cod_inv[v]] for v in values]
        fixed = sum(1 << j for j, jj in enumerate(cmate) if jj == j)
        for i, x in enumerate(dom.elements):
            mate[i] = dom.index[dom_inv[x]]
            if mate[i] == i:
                cand[i] &= fixed
    orbit = [(i,) if ii == i else (i, ii) for i, ii in enumerate(mate)]
    val = [-1] * n
    assigned = 0  # points with a value
    used = 0  # values taken, kept only when injective

    def options(i: int) -> int:
        m = cand[i] & ~used
        below = down[i] & assigned
        while below:
            low = below & -below
            below ^= low
            m &= cup[val[low.bit_length() - 1]]
        above = up[i] & assigned
        while above:
            low = above & -above
            above ^= low
            m &= cdown[val[low.bit_length() - 1]]
        return m

    if n == 0:
        yield {}
        return
    stack = [[0, options(ext[0])]]
    while stack:
        frame = stack[-1]
        t, m = frame
        i = ext[t]
        ii = mate[i]
        for x in orbit[i]:  # undo the previous choice at this frame
            if val[x] >= 0:
                assigned ^= 1 << x
                if injective:
                    used ^= 1 << val[x]
                val[x] = -1
        if not m:
            stack.pop()
            continue
        low = m & -m
        frame[1] = m ^ low
        j = low.bit_length() - 1
        val[i] = j
        assigned |= 1 << i
        if injective:
            used |= low
        if ii != i:
            jj = cmate[j]
            if not options(ii) >> jj & 1:
                continue
            val[ii] = jj
            assigned |= 1 << ii
            if injective:
                used |= 1 << jj
        t += 1
        while t < n and val[ext[t]] >= 0:
            t += 1
        if t == n:
            yield {dom.elements[x]: values[val[x]] for x in ext}
        else:
            stack.append([t, options(ext[t])])


def find_isomorphism(
    p: Poset,
    q: Poset,
    op_p: dict[str, str] | None = None,
    op_q: dict[str, str] | None = None,
) -> dict[str, str] | None:
    """Order isomorphism p -> q, or None.

    When the optional unary operations are given (involutions), the
    isomorphism must also commute with them.  Backtracking with
    degree-level invariants; deterministic first result.
    """
    if len(p.elements) != len(q.elements) or len(p.le) != len(q.le):
        return None

    def inv_p(x: str):
        base = (len(p._down[x]), len(p._up[x]))
        return base + ((op_p[x] == x,) if op_p else ())

    def inv_q(u: str):
        base = (len(q._down[u]), len(q._up[u]))
        return base + ((op_q[u] == u,) if op_q else ())

    if sorted(map(inv_p, p.elements)) != sorted(map(inv_q, q.elements)):
        return None
    # with equally many pairs, an injective monotone map is an isomorphism
    matches: dict[object, list[str]] = {}
    for u in q.elements:
        matches.setdefault(inv_q(u), []).append(u)
    allowed = {x: matches[inv_p(x)] for x in p.elements}
    return next(search_maps(p, q, allowed, op_p, op_q, injective=True), None)


def enumerate_monotone_maps(p: Poset, q: Poset) -> Iterator[MonotoneMap]:
    """All monotone maps p -> q, deterministically, each exactly once."""
    for f in search_maps(p, q):
        yield make_monotone_map(p, q, f)
