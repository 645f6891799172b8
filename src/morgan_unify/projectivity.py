"""Projectivity of finite algebras, decided on their order duals.

Condition checkers for the lattice/fixed-point/completeness conditions,
theorem-based deciders per variety, the canonical embedding into a power
of DIAMOND, constructive retractions, and a brute-force retraction
search used as the agreement oracle.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator

from .documents import jsonable
from .errors import PreconditionError, SizeGuardError, ValidationError
from .involutive import (
    DIAMOND,
    InvMorphism,
    InvPoset,
    kleene_part,
    make_inv_morphism,
    power,
)
from .order import Poset, bits, is_three_complete, lattice_report, search_maps

VARIETIES = ("bdl", "kleene", "demorgan")
#: the dual conditions each involutive variety's projectivity theorem needs
REQUIRED = {"demorgan": ("m1", "m2", "m3"), "kleene": ("m2", "m3", "k1", "k2")}


@dataclass(frozen=True)
class ConditionReport:
    """Flags for the five dual conditions, with a witness per failure.

    m1: the carrier is a nonempty lattice.
    m2: every x <= i(x) has a fixed point above it.
    m3: the self-below-involution subposet is 3-complete.
    k1: that subposet is a nonempty meet semilattice.
    k2: cross-bounded pairs have a common upper bound below its involute.
    """

    m1: bool
    m2: bool
    m3: bool
    k1: bool
    k2: bool
    witnesses: dict[str, object]


def self_below_subposet(p: InvPoset) -> Poset:
    """The induced subposet on the self-below points, x <= i(x), as a
    bare `Poset`: the involution sends them out of it."""
    return Poset.restrict(p, p.self_below_mask)


def check_m2(p: InvPoset) -> tuple[bool, str | None]:
    up, fixed = p.up_masks, p.fixed_mask
    for x in bits(p.self_below_mask):
        if not up[x] & fixed:
            return False, p.elements[x]
    return True, None


def check_k2(p: InvPoset) -> tuple[bool, tuple[str, str] | None]:
    # i is an antitone involution, so x <= i(y) exactly when y <= i(x):
    # the partners y of x are the self-below points below i(x), taken
    # from x's index up
    up, down, mate = p.up_masks, p.down_masks, p.mate
    below = p.self_below_mask
    for x in bits(below):
        for y in bits(below & down[mate[x]] & -(1 << x)):
            if not up[x] & up[y] & below:
                return False, (p.elements[x], p.elements[y])
    return True, None


def condition_report(p: InvPoset) -> ConditionReport:
    witnesses: dict[str, object] = {}
    rep = lattice_report(p)
    m1 = rep.is_nonempty_lattice
    if not m1:
        witnesses["m1"] = rep.witness
    m2, w2 = check_m2(p)
    if not m2:
        witnesses["m2"] = w2
    sub = self_below_subposet(p)
    m3, w3 = is_three_complete(sub)
    if not m3:
        witnesses["m3"] = w3
    sub_rep = lattice_report(sub)
    k1 = sub_rep.is_meet_semilattice
    if not k1:
        witnesses["k1"] = sub_rep.witness
    k2, wk2 = check_k2(p)
    if not k2:
        witnesses["k2"] = wk2
    return ConditionReport(m1, m2, m3, k1, k2, witnesses)


def is_projective_dual(p: Poset, variety: str) -> tuple[bool, ConditionReport]:
    """Theorem-based projectivity decision on the dual object.

    bdl needs a nonempty lattice; demorgan needs m1, m2, m3; kleene
    needs m2, m3, k1, k2 on a Kleene object.
    """
    if variety not in VARIETIES:
        raise PreconditionError(f"unknown variety {variety!r}")
    if variety == "bdl":
        if not isinstance(p, Poset):
            raise PreconditionError("variety 'bdl' needs a poset")
        rep = lattice_report(p)
        report = ConditionReport(
            rep.is_nonempty_lattice,
            True,
            True,
            True,
            True,
            {} if rep.is_nonempty_lattice else {"m1": rep.witness},
        )
        return rep.is_nonempty_lattice, report
    if not isinstance(p, InvPoset):
        raise PreconditionError(f"variety {variety!r} needs an involutive poset")
    if variety == "kleene" and not p.is_kleene:
        raise PreconditionError("kleene projectivity asked of a non-Kleene object")
    report = condition_report(p)
    return all(getattr(report, c) for c in REQUIRED[variety]), report


def canonical_embedding(
    p: InvPoset, prune: bool = False
) -> tuple[int, dict[str, str]]:
    """Embed p into power(DIAMOND, n) with one coordinate per element.

    Returns n and each point's vector: a digit string over DIAMOND's
    elements, which is its name in power(DIAMOND, n).  The coordinate at
    q classifies each point against the principal downset of q.  The
    result is injective, monotone, inv-commuting and order-reflecting;
    this contract is re-verified after construction, one coordinate at
    a time, without building the power.  With prune=True, coordinates
    that are redundant for the contract are greedily dropped (first
    coordinate kept), shrinking oracle searches.
    """
    columns = _columns(p, prune)
    # the retraction walks all 4^n vectors; 4^7 is already past desk
    # scale, so refuse rather than thrash
    if len(columns) > 6:
        raise SizeGuardError(
            f"embedding ambient D^{len(columns)} too large; prune or shrink the input"
        )
    return _embed(p, columns)


def oracle_embedding(p: InvPoset) -> tuple[int, dict[str, str]]:
    """`canonical_embedding(p, prune=True)`, refused by the oracle's
    dimension guard.

    More than 4^4 = 256 points are refused before pruning: an injective
    map into D^4 has at most that many.
    """
    if len(p.elements) > 4**4:
        raise SizeGuardError(
            f"oracle guard: {len(p.elements)} points exceed the 256 of D^4"
        )
    columns = _columns(p, prune=True)
    _oracle_guard(len(columns))
    return _embed(p, columns)


def _columns(p: InvPoset, prune: bool) -> list[int]:
    """The indices of the points q whose coordinates the embedding keeps."""
    if not p.elements:
        raise PreconditionError("cannot embed the empty involutive poset")
    n = len(p.elements)
    if not prune:
        return list(range(n))
    up, down = p.up_masks, p.down_masks
    inv = p.mate
    full = (1 << n) - 1

    def rows(a: int) -> int:
        # the pair (x, y) is bit x*n + y; rows(a) * b sets the pairs with
        # x in a and y in b, as b has fewer than n bits
        return sum(1 << x * n for x in bits(a))

    unordered = ((1 << n * n) - 1) & ~sum(u << x * n for x, u in enumerate(up))
    # column q separates x !<= y when y <= q and x !<= q, or i(x) <= q
    # and i(y) !<= q, that is x in up[i(q)] and y not; every such pair
    # needs a kept separating column, and injectivity then follows by
    # antisymmetry
    separated = [
        (rows(full & ~down[q]) * down[q] | rows(up[inv[q]]) * (full & ~up[inv[q]]))
        & unordered
        for q in range(n)
    ]
    earlier = [0]  # earlier[k]: the pairs the columns before k separate
    for m in separated:
        earlier.append(earlier[-1] | m)
    kept, later = full, 0  # later: the pairs the kept columns after k separate
    for k in reversed(range(n)):
        if kept.bit_count() == 1:
            break
        if earlier[k] | later == unordered:
            kept &= ~(1 << k)
        else:
            later |= separated[k]
    return list(bits(kept))


def _embed(p: InvPoset, columns: list[int]) -> tuple[int, dict[str, str]]:
    # the coordinate at q classifies x against the principal downset of
    # q and its De Morgan complement: x <= q and i(x) !<= q -> "2", x <= q
    # only -> "0", i(x) !<= q only -> "1", neither -> "3"
    up = p.up_masks
    inv_up = [up[j] for j in p.mate]
    vectors = {
        x: "".join("1320"[2 * (up[k] >> q & 1) + (inv_up[k] >> q & 1)] for q in columns)
        for k, x in enumerate(p.elements)
    }
    _check_embedding(p, vectors)
    return len(columns), vectors


#: DIAMOND's elements, in its element order: the digits of a vector of
#: power(DIAMOND, n), whose elements run through them like
#: itertools.product(DIGITS, repeat=n)
DIGITS = "".join(DIAMOND.elements)
#: DIAMOND's involution on digits
_SWAP = str.maketrans(DIGITS, "".join(DIAMOND.i(d) for d in DIGITS))


def _coordinate_masks(
    p: Poset, vectors: dict[str, str]
) -> tuple[list[dict[str, int]], list[dict[str, int]]]:
    """For each coordinate c and digit d, the mask of the points whose
    digit at c is at most d in DIAMOND, and the mask of those at least d."""
    n = len(next(iter(vectors.values())))
    at = [dict.fromkeys(DIGITS, 0) for _ in range(n)]
    for x, v in vectors.items():
        bit = 1 << p.index[x]
        for c, d in enumerate(v):
            at[c][d] |= bit
    d_down, d_up = DIAMOND.down_masks, DIAMOND.up_masks

    def union(a: dict[str, int], m: int) -> int:
        out = 0
        for j in bits(m):
            out |= a[DIGITS[j]]
        return out

    le = [{d: union(a, d_down[j]) for j, d in enumerate(DIGITS)} for a in at]
    ge = [{d: union(a, d_up[j]) for j, d in enumerate(DIGITS)} for a in at]
    return le, ge


def _check_embedding(p: InvPoset, vectors: dict[str, str]) -> None:
    """Verify that `vectors` is an order embedding of p into D^n that
    commutes with the involutions.

    The points whose vector lies below y's are the AND, over the
    coordinates, of the points whose digit there is at most y's; the
    embedding is monotone and order-reflecting exactly when that is
    y's down-set, and then injective by antisymmetry.
    """
    for x in p.elements:
        if vectors[p.i(x)] != vectors[x].translate(_SWAP):
            raise ValidationError(f"involution commutation fails at {x!r}", witness=x)
    le, _ = _coordinate_masks(p, vectors)
    for k, y in enumerate(p.elements):
        below = (1 << len(p.elements)) - 1
        for c, d in enumerate(vectors[y]):
            below &= le[c][d]
        down = p.down_masks[k]
        if below == down:
            continue
        missing, extra = down & ~below, below & ~down
        if missing:
            x = p.elements[(missing & -missing).bit_length() - 1]
            raise ValidationError(f"monotonicity fails on {x!r} <= {y!r}", witness=(x, y))
        x = p.elements[(extra & -extra).bit_length() - 1]
        if vectors[x] == vectors[y]:
            raise ValidationError(
                f"embedding not injective: {x!r} and {y!r}", witness=x
            )
        raise ValidationError(
            f"embedding not order-reflecting on ({x!r}, {y!r})", witness=(x, y)
        )


def _check_vectors(p: InvPoset, n: int, vectors: dict[str, str]) -> None:
    """Refuse an embedding that does not send each point to a vector of D^n."""
    for x in p.elements:
        v = vectors.get(x)
        if v is None or len(v) != n or v.strip(DIGITS):
            raise PreconditionError(
                f"embedding codomain is not D^{n}: {x!r} maps to {v!r}"
            )


def _vector_names(n: int) -> list[str]:
    """The elements of power(DIAMOND, n), in its element order."""
    return ["".join(t) for t in itertools.product(DIGITS, repeat=n)]


def _cover_steps(n: int) -> Iterator[tuple[int, int]]:
    """The pairs (k, l) of indices into _vector_names(n) whose vectors
    differ in one coordinate, where l's digit covers k's in DIAMOND.

    Their reflexive-transitive closure is the order of power(DIAMOND, n).
    """
    d_covers = [(DIGITS.index(a), DIGITS.index(b)) for a, b in DIAMOND.covers()]
    for c in range(n):
        w = 4 ** (n - 1 - c)
        for high in range(0, 4**n, 4 * w):
            for a, b in d_covers:
                for k in range(high + a * w, high + (a + 1) * w):
                    yield k, k + (b - a) * w


def build_retraction(
    p: InvPoset,
    variety: str,
    embedding: tuple[int, dict[str, str]] | None = None,
) -> dict[str, str]:
    """Constructive retraction of power(DIAMOND, n) (or its Kleene part)
    onto the embedded copy of p, as a map from vectors to points, in
    the ambient's element order.

    Follows the proofs of the projectivity theorems: fixed vectors go to
    a fixed point squeezed between the join of the image elements below
    and the meet of those above; other vectors take the join or the meet
    according to the first non-fixed coordinate.  The output is verified
    to be a morphism restricting to the identity on the image: it
    commutes with the involutions pointwise and is monotone on every
    single-coordinate cover step inside the ambient, and those steps
    generate the ambient's order.  The ambient is never built.
    """
    if variety not in ("demorgan", "kleene"):
        raise PreconditionError("build_retraction supports demorgan and kleene")
    ok, report = is_projective_dual(p, variety)
    if not ok:
        failed = "; ".join(
            f"{c} fails at {json.dumps(jsonable(report.witnesses.get(c)))}"
            for c in REQUIRED[variety]
            if not getattr(report, c)
        )
        raise PreconditionError(f"input is not projective for {variety}: {failed}")
    n, vectors = embedding if embedding is not None else canonical_embedding(p)
    if n > 6:
        raise SizeGuardError(
            f"retraction ambient D^{n} too large; pass a pruned embedding"
        )
    _check_vectors(p, n, vectors)
    up, down = p.up_masks, p.down_masks
    by_down, by_up = p._mask_index
    full = (1 << len(p)) - 1
    names = _vector_names(n)
    position = {v: k for k, v in enumerate(names)}
    mate = [position[v.translate(_SWAP)] for v in names]  # index of i(v)
    # the originals below (above) a vector: the points whose digit is at
    # most (at least) the vector's, coordinate by coordinate, built in
    # element order one coordinate at a time
    le, ge = _coordinate_masks(p, vectors)
    below, above = [full], [full]
    for c in range(n):
        below = [m & le[c][d] for m in below for d in DIGITS]
        above = [m & ge[c][d] for m in above for d in DIGITS]
    image = {v: p.index[x] for x, v in vectors.items()}
    fixed, inv = p.fixed_mask, p.mate

    def bound(m: int, masks: tuple[int, ...], lookup: dict[int, int]) -> int | None:
        """The join (up-masks) or meet (down-masks) of the points in m."""
        common = full
        for x in bits(m):
            common &= masks[x]
        return lookup.get(common)

    def fixed_between(lo: int | None, hi: int | None) -> int:
        m = fixed
        if lo is not None:
            m &= up[lo]
        if hi is not None:
            m &= down[hi]
        if not m:
            raise ValidationError("no eligible fixed point; input not projective?")
        return (m & -m).bit_length() - 1

    r: list[int | None] = [None] * len(names)
    if variety == "demorgan":
        for k, v in enumerate(names):
            if v in image:
                r[k] = image[v]
            elif "2" not in v and "3" not in v:  # a fixed vector
                lo = bound(below[k], up, by_up)
                hi = bound(above[k], down, by_down)
                r[k] = fixed_between(lo, hi)
            else:
                m = next(c for c in v if c in "23")
                if m == "2":
                    t = bound(below[k], up, by_up)
                else:
                    t = bound(above[k], down, by_down)
                if t is None:
                    raise ValidationError(f"no join or meet of originals at {v!r}")
                r[k] = t
        kept = range(len(names))
    else:
        # the Kleene part: vectors comparable with their involute, those
        # holding no 2 together with a 3
        kept = [k for k, v in enumerate(names) if "2" not in v or "3" not in v]
        for k in kept:
            v = names[k]
            if "3" in v:
                continue
            if v in image:
                r[k] = image[v]
                continue
            lo = bound(below[k], up, by_up)
            if lo is None:
                raise ValidationError(f"join of lower originals missing at {v!r}")
            r[k] = lo if "2" in v else fixed_between(lo, None)
        for k in kept:
            if r[k] is None:
                r[k] = inv[r[mate[k]]]

    for k in kept:
        if r[mate[k]] != inv[r[k]]:
            raise ValidationError(
                f"involution commutation fails at {names[k]!r}", witness=names[k]
            )
    for k, j in _cover_steps(n):
        if r[k] is not None and r[j] is not None and not up[r[k]] >> r[j] & 1:
            raise ValidationError(
                f"monotonicity fails on {names[k]!r} <= {names[j]!r}",
                witness=(names[k], names[j]),
            )
    for x, v in vectors.items():
        if r[position[v]] != p.index[x]:
            raise ValidationError(f"retraction does not fix {x!r}", witness=x)
    return {names[k]: p.elements[r[k]] for k in kept}


def oracle_retraction_search(
    p: InvPoset,
    embedding: tuple[int, dict[str, str]] | None = None,
    variety: str = "demorgan",
) -> InvMorphism | None:
    """Exhaustive search for a retraction onto the embedded copy of p.

    Returns the first inv-commuting monotone map fixing the image, in
    canonical order, or None after exhausting the space.  Guarded to
    embeddings of dimension at most 4, and to ORACLE_NODES search nodes.
    The default embedding is `oracle_embedding(p)`, on which every class
    of at most 4 points ends in a verdict.  Under kleene, p must be a
    Kleene object, as `build_retraction` asks.
    """
    if embedding is None:  # an input too large is refused whatever the variety
        embedding = oracle_embedding(p)
    if variety not in ("demorgan", "kleene"):
        raise PreconditionError("oracle supports demorgan and kleene")
    if variety == "kleene" and not p.is_kleene:
        raise PreconditionError("kleene retraction oracle asked of a non-Kleene object")
    n, vectors = embedding
    _oracle_guard(n)
    _check_vectors(p, n, vectors)
    dom = power(DIAMOND, n)
    if variety == "kleene":
        dom = kleene_part(dom)
    forced = {v: (x,) for x, v in vectors.items() if v in dom}
    maps = search_maps(dom, p, forced, dom.mate, p.mate, budget=ORACLE_NODES)
    f = next(maps, None)
    return None if f is None else make_inv_morphism(dom, p, f)


#: the retraction oracle's search-node budget.  Its uses that must end
#: in a verdict, every involutive class of at most 4 points under
#: demorgan and kleene on its default, pruned embedding
#: (`oracle_embedding`) and the pinned CLI cases, take at most 193
#: nodes; the budget is over 100 times that.  The search tries about 70,000 nodes a second on D^4
#: (2 vCPU Xeon), so a refusal comes within a second.
ORACLE_NODES = 20_000


def _oracle_guard(n: int) -> None:
    # the search is exhaustive over the 4^n points of the ambient, so the
    # oracle is kept to the small instances it cross-checks
    if n > 4:
        raise SizeGuardError(f"oracle guard: embedding dimension {n} exceeds 4")
