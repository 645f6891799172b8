"""Finite posets: validation, subposets, bounds, down-sets, enumeration
by growth, isomorphism, and the one backtracking search for monotone
maps between them.

Element identifiers are opaque strings; the `elements` tuple fixes the
canonical iteration order used for all deterministic tie-breaking
downstream.  The order is held as up-masks over element indices: bit j
of `up_masks[i]` is set when elements[i] <= elements[j], so the stored
relation is reflexive-transitively closed.  Down-masks and the
mask-to-point index are views derived from the up-masks.  A selection
of points is a bitmask over the same indices: `restrict` takes one,
and `search_maps` takes involutions as index tuples.  The small
corpora grow one maximal point at a time, above each down-set of the
classes one size smaller.

Tuples built on every call are built from lists, not generators:
tuple() over a generator allocates ten slots and then resizes, so the
freed tuples pile up on the interpreter's per-size free lists, which
only a full garbage collection empties (megabytes over a long run).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import SizeGuardError, ValidationError

Pair = tuple[str, str]

def bits(m: int) -> Iterator[int]:
    """The indices of the set bits of `m`, ascending."""
    while m:
        low = m & -m
        m ^= low
        yield low.bit_length() - 1


@dataclass(frozen=True)
class Poset:
    """A finite poset: its elements in canonical order and, for each, the
    up-mask of the elements above it, itself included."""

    elements: tuple[str, ...]
    up_masks: tuple[int, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Down-set bitmasks: the transpose of the up-masks."""
        n = len(self.elements)
        # transposed through binary strings, at C speed; a Python loop
        # would take one step per pair of the relation
        rows = [format(u, f"0{n}b") for u in self.up_masks]
        return tuple([int("".join(col)[::-1], 2) for col in zip(*rows)])[::-1]

    @cached_property
    def _mask_index(self) -> tuple[dict[int, int], dict[int, int]]:
        """Each element's index keyed by its down-set mask, and keyed by its
        up-set mask; both are unique by antisymmetry."""
        return (
            {m: i for i, m in enumerate(self.down_masks)},
            {m: i for i, m in enumerate(self.up_masks)},
        )

    @cached_property
    def _extension(self) -> tuple[int, ...]:
        """Element indices along linear_extension()."""
        down = self.down_masks
        return tuple(sorted(range(len(down)), key=lambda i: (down[i].bit_count(), i)))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self.index

    def mask(self, xs: Iterable[str]) -> int:
        """The bitmask of the elements `xs`."""
        idx = self.index
        m = 0
        for x in xs:
            m |= 1 << idx[x]
        return m

    def members(self, mask: int) -> tuple[str, ...]:
        """The elements whose bits are set in `mask`, in element order."""
        return tuple([self.elements[i] for i in bits(mask)])

    def leq(self, x: str, y: str) -> bool:
        idx = self.index
        try:
            return self.up_masks[idx[x]] >> idx[y] & 1 == 1
        except KeyError:
            return False

    def up_of(self, xs: Iterable[str]) -> frozenset[str]:
        m = 0
        for x in xs:
            m |= self.up_masks[self.index[x]]
        return frozenset(self.members(m))

    def interval(self, x: str, y: str) -> frozenset[str]:
        idx = self.index
        return frozenset(self.members(self.up_masks[idx[x]] & self.down_masks[idx[y]]))

    def minimals(self) -> tuple[str, ...]:
        down = self.down_masks
        return tuple([x for i, x in enumerate(self.elements) if down[i] == 1 << i])

    def maximals(self) -> tuple[str, ...]:
        up = self.up_masks
        return tuple([x for i, x in enumerate(self.elements) if up[i] == 1 << i])

    def _bound(self, xs: Iterable[str], side: int) -> str | None:
        """The point whose down-set (side 0) or up-set (side 1) is the
        common one of `xs`: their meet or join, if it exists."""
        masks = (self.down_masks, self.up_masks)[side]
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
        """Cover pairs (a, b) with a < b and nothing strictly between, by
        index of a, then of b.

        b covers a when the only point of a's strict up-set below b is b.
        A point b above a rules out every point above b, so those are not
        tested.
        """
        elems = self.elements
        up, down = self.up_masks, self.down_masks
        out = []
        for a, u in enumerate(up):
            strict = u ^ 1 << a
            rest = strict
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                if down[b] & strict == low:
                    out.append((elems[a], elems[b]))
                rest &= ~up[b]
        return tuple(out)

    def restrict(self, keep: int) -> "Poset":
        """Induced subposet on the points of the mask `keep`; element
        order is inherited from this poset."""
        kept = list(bits(keep))
        new_bit = {1 << i: 1 << k for k, i in enumerate(kept)}
        up = []
        for i in kept:
            m = self.up_masks[i] & keep
            u = 0
            while m:
                low = m & -m
                m ^= low
                u |= new_bit[low]
            up.append(u)
        return Poset(tuple([self.elements[i] for i in kept]), tuple(up))

    def linear_extension(self) -> tuple[str, ...]:
        """Canonical linear extension: by downset size, then input order."""
        return tuple([self.elements[i] for i in self._extension])


def order_violation(
    p: Poset, image: Sequence[int], targets: Sequence[int]
) -> Pair | None:
    """The first pair x <= y of p, by index of x, then of y, whose images
    break the order `targets`: bit image[y] missing from targets[image[x]].

    With targets the codomain's up-masks that is a monotonicity failure;
    with p's own down-masks and an involution as image, an antitonicity
    failure.
    """
    for i, u in enumerate(p.up_masks):
        allowed = targets[image[i]]
        for j in bits(u):
            if not allowed >> image[j] & 1:
                return p.elements[i], p.elements[j]
    return None


def antitone_violation(p: Poset, sigma: dict[str, str]) -> Pair | None:
    """The first pair a <= b of p, in element order, with sigma(b) <= sigma(a)
    failing; None when sigma reverses the order."""
    image = [p.index[sigma[x]] for x in p.elements]
    return order_violation(p, image, p.down_masks)


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

    @cached_property
    def is_embedding(self) -> bool:
        """Whether x <= y exactly when f(x) <= f(y); such a map is injective.

        Each point's up-mask must be the set of points whose images lie
        above its image.
        """
        f, cidx, cup = self.as_dict, self.cod.index, self.cod.up_masks
        image = [cidx[f[x]] for x in self.dom.elements]
        for u, v in zip(self.dom.up_masks, image):
            above = cup[v]
            pulled = 0
            for j, w in enumerate(image):
                if above >> w & 1:
                    pulled |= 1 << j
            if pulled != u:
                return False
        return True

    def check(self) -> None:
        f = self.as_dict
        if set(f) != set(self.dom.elements):
            raise ValidationError("map is not total on its domain")
        for v in f.values():
            if v not in self.cod:
                raise ValidationError(f"image element {v!r} not in codomain", v)
        image = [self.cod.index[f[x]] for x in self.dom.elements]
        bad = order_violation(self.dom, image, self.cod.up_masks)
        if bad is not None:
            x, y = bad
            raise ValidationError(
                f"monotonicity fails on {x!r} <= {y!r}", witness=(x, y)
            )


def make_monotone_map(dom: Poset, cod: Poset, mapping: dict[str, str]) -> MonotoneMap:
    return MonotoneMap(dom, cod, tuple([(x, mapping[x]) for x in dom.elements]))


def validate_monotone_map(
    dom: Poset, cod: Poset, mapping: dict[str, str]
) -> MonotoneMap:
    f = make_monotone_map(dom, cod, mapping)
    f.check()
    return f


def identity_map(p: Poset) -> MonotoneMap:
    return make_monotone_map(p, p, {x: x for x in p.elements})


def validate_poset(
    elements: Sequence[str], pairs: Iterable[Pair], mode: str = "covers"
) -> Poset:
    """Build a Poset from raw data.

    mode "covers": reflexive-transitive closure is computed, then
    antisymmetry is checked.  mode "le": the relation is taken as given
    (reflexive pairs may be omitted) and transitivity gaps are errors.

    Closure runs in reverse topological order (Kahn's sort): each point's
    up-mask is its own bit or'ed with its successors' up-masks.  A cycle
    stops the sort, and only then is the relation closed by repeated
    passes to name its witness.
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

    n = len(elems)
    succ = [0] * n  # strict successors, self-loops and repeats dropped
    for a, b in pair_list:
        i, j = position[a], position[b]
        if i != j:
            succ[i] |= 1 << j
    up = [s | 1 << i for i, s in enumerate(succ)]

    if mode == "le":
        for i, u in enumerate(up):
            for j in bits(u):
                extra = up[j] & ~u
                if extra:
                    # witnesses are taken in element order, z by name
                    x, y = elems[i], elems[j]
                    z = min(elems[k] for k in bits(extra))
                    raise ValidationError(
                        f"transitivity gap: {x!r} <= {y!r} <= {z!r} "
                        f"but ({x!r}, {z!r}) missing",
                        witness=(x, y, z),
                    )
        # a transitive relation is antisymmetric iff its up-sets differ
        if len(set(up)) < n:
            raise _cycle_error(elems, up)
        return Poset(elems, tuple(up))

    indegree = [0] * n
    for s in succ:
        for j in bits(s):
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # grows while it is read
        for j in bits(succ[i]):
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        _close(up)
        raise _cycle_error(elems, up)
    for i in reversed(order):
        u = up[i]
        for j in bits(succ[i]):
            u |= up[j]
        up[i] = u
    return Poset(elems, tuple(up))


def _close(up: list[int]) -> None:
    """Transitive closure in place by passes until nothing changes: each
    pass at least doubles the path lengths it accounts for."""
    changed = True
    while changed:
        changed = False
        for i, u in enumerate(up):
            v = u
            for j in bits(u):
                v |= up[j]
            if v != u:
                up[i] = v
                changed = True


def _cycle_error(elems: tuple[str, ...], up: list[int]) -> ValidationError:
    """The error for the first x, then the first y, in element order, with
    x < y < x in the closed relation `up`, which must have such a pair."""
    for i, u in enumerate(up):
        for j in bits(u ^ 1 << i):
            if up[j] >> i & 1:
                x, y = elems[i], elems[j]
                return ValidationError(
                    f"antisymmetry violation: cycle through {x!r} and {y!r}",
                    witness=(x, y),
                )
    raise AssertionError("no cycle in the relation")


@dataclass(frozen=True)
class LatticeReport:
    is_nonempty_lattice: bool
    is_meet_semilattice: bool
    witness: Pair | None


def lattice_report(p: Poset) -> LatticeReport:
    """Pairwise join/meet diagnostics.

    The witness is the first pair, in canonical order, lacking a join or
    a meet; the report stops at the first pair lacking a meet, since no
    later pair changes it.  Only incomparable pairs are tested: when
    x <= y, the meet of the pair is x and the join is y, so a comparable
    pair lacks neither and skipping it changes neither the witness nor
    the flags.  A chain needs no test at all.  The empty poset is not a
    nonempty lattice.
    """
    elems = p.elements
    n = len(elems)
    if not n:
        return LatticeReport(False, False, None)
    down, up = p.down_masks, p.up_masks
    by_down, by_up = p._mask_index
    full = (1 << n) - 1
    witness = None
    for i in range(n):
        di, ui = down[i], up[i]
        # the later points incomparable with i
        later = full & ~(ui | di) >> (i + 1) << (i + 1)
        while later:
            low = later & -later
            later ^= low
            j = low.bit_length() - 1
            if (di & down[j]) not in by_down:
                if witness is None:
                    witness = (elems[i], elems[j])
                return LatticeReport(False, False, witness)
            if witness is None and (ui & up[j]) not in by_up:
                witness = (elems[i], elems[j])
    return LatticeReport(witness is None, True, witness)


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
    up = p.up_masks
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


#: the most down-sets `downset_masks` lists: `dualize --direction
#: to-algebra` takes time quadratic in their number
DOWNSET_CAP = 4096


def downset_masks(p: Poset) -> list[int]:
    """The masks of all down-sets of p, ascending.

    A frontier walk from the empty set: a point may be added once the
    rest of its down-set is in.  More than DOWNSET_CAP down-sets raise
    SizeGuardError.
    """
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for i, down in enumerate(p.down_masks):
            if down & ~current == 1 << i:
                grown = current | 1 << i
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
        if len(seen) > DOWNSET_CAP:
            raise SizeGuardError(f"down-set guard: more than {DOWNSET_CAP} down-sets")
    return sorted(seen)


def _degrees(p: Poset) -> list[tuple[int, int]]:
    """Each point's down-set and up-set size, in element order."""
    return [(d.bit_count(), u.bit_count()) for d, u in zip(p.down_masks, p.up_masks)]


def _iso_signature(p: Poset):
    degs = _degrees(p)
    return len(degs), sum(u for _, u in degs), tuple(sorted(degs))


def enumerate_posets_upto(k: int) -> Iterator[Poset]:
    """All posets with at most k elements, one per isomorphism class.

    Level n + 1 grows from the level-n representatives: each down-set D
    of each one gets the new point str(n) as a maximal point above D.
    Deleting a maximal point shows that every poset arises this way;
    children are deduplicated up to isomorphism.  Element order is a
    linear extension.  Deterministic output order.
    """
    if k < 0:
        return
    level = [Poset((), ())]
    yield level[0]
    for n in range(k):
        top = 1 << n
        name = (str(n),)
        buckets: dict[object, list[Poset]] = {}
        grown = []
        for rep in level:
            for d in downset_masks(rep):
                up = [u | top if d >> i & 1 else u for i, u in enumerate(rep.up_masks)]
                up.append(top)
                cand = Poset(rep.elements + name, tuple(up))
                known = buckets.setdefault(_iso_signature(cand), [])
                if not any(find_isomorphism(cand, r) is not None for r in known):
                    known.append(cand)
                    grown.append(cand)
                    yield cand
        level = grown


def search_maps(
    dom: Poset,
    cod: Poset,
    allowed: dict[str, Iterable[str]] | None = None,
    dom_mate: Sequence[int] | None = None,
    cod_mate: Sequence[int] | None = None,
    injective: bool = False,
    budget: int | None = None,
) -> Iterator[dict[str, str]]:
    """Every monotone map dom -> cod meeting the constraints, as a dict.

    Points are assigned along `dom.linear_extension()` and values tried
    in `cod.elements` order, so maps come out in lexicographic order of
    their values along that extension.  `allowed` restricts the value of
    a point to the given candidates.  With both involutions given as
    index tuples (`InvPoset.mate`), each point is assigned together with
    its involute (fixed points only to fixed points), so every map
    commutes with them.  `injective` rejects repeated values.  `budget`
    bounds the nodes, the values tried: one more raises SizeGuardError.
    Backtracking keeps an explicit stack, so deep domains do not hit the
    recursion limit.
    """
    ext = dom._extension
    n = len(ext)
    down, up = dom.down_masks, dom.up_masks
    values = cod.elements
    cdown, cup = cod.down_masks, cod.up_masks
    cand = [(1 << len(values)) - 1] * n
    if allowed is not None:
        for x, vs in allowed.items():
            m = 0
            for v in vs:
                m |= 1 << cod.index[v]
            cand[dom.index[x]] = m
    mate = range(n) if dom_mate is None else dom_mate
    if dom_mate is not None:
        fixed = sum(1 << j for j, jj in enumerate(cod_mate) if jj == j)
        for i, ii in enumerate(mate):
            if ii == i:
                cand[i] &= fixed
    orbit = [(i,) if ii == i else (i, ii) for i, ii in enumerate(mate)]
    val = [-1] * n
    assigned = 0  # points with a value
    used = 0  # values taken, kept only when injective
    left = -1 if budget is None else budget + 1  # nodes left; never 0 unbounded

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
        left -= 1
        if not left:
            raise SizeGuardError(f"search exceeded its budget of {budget} nodes")
        low = m & -m
        frame[1] = m ^ low
        j = low.bit_length() - 1
        val[i] = j
        assigned |= 1 << i
        if injective:
            used |= low
        if ii != i:
            jj = cod_mate[j]
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
    mate_p: Sequence[int] | None = None,
    mate_q: Sequence[int] | None = None,
) -> dict[str, str] | None:
    """Order isomorphism p -> q, or None.

    When involutions are given, as index tuples like `search_maps`
    takes, the isomorphism must also commute with them.  Backtracking
    with degree-level invariants; deterministic first result.
    """
    if len(p.elements) != len(q.elements):
        return None
    deg_p, deg_q = _degrees(p), _degrees(q)
    if sum(u for _, u in deg_p) != sum(u for _, u in deg_q):
        return None
    inv_p = [d + ((mate_p[k] == k,) if mate_p else ()) for k, d in enumerate(deg_p)]
    inv_q = [d + ((mate_q[k] == k,) if mate_q else ()) for k, d in enumerate(deg_q)]
    if sorted(inv_p) != sorted(inv_q):
        return None
    # with equally many pairs, an injective monotone map is an isomorphism
    matches: dict[object, list[str]] = {}
    for key, u in zip(inv_q, q.elements):
        matches.setdefault(key, []).append(u)
    allowed = {x: matches[key] for key, x in zip(inv_p, p.elements)}
    return next(search_maps(p, q, allowed, mate_p, mate_q, injective=True), None)


def enumerate_monotone_maps(p: Poset, q: Poset) -> Iterator[MonotoneMap]:
    """All monotone maps p -> q, deterministically, each exactly once."""
    for f in search_maps(p, q):
        yield make_monotone_map(p, q, f)
