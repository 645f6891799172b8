"""Projectivity of finite algebras, decided on their order duals.

Condition checkers for the lattice/fixed-point/completeness conditions,
theorem-based deciders per variety, the canonical embedding into a power
of DIAMOND, constructive retractions, and a brute-force retraction
search used as the agreement oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement

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
    return p.base.restrict(p.self_below_inv())


def check_m2(p: InvPoset) -> tuple[bool, str | None]:
    base = p.base
    fixed = base.mask(p.fixed_points)
    for x in p.self_below_inv():
        if not base.up_masks[base.index[x]] & fixed:
            return False, x
    return True, None


def check_k2(p: InvPoset) -> tuple[bool, tuple[str, str] | None]:
    base = p.base
    up, idx = base.up_masks, base.index
    self_below = p.self_below_inv()
    candidates = base.mask(self_below)
    for x, y in combinations_with_replacement(self_below, 2):
        if not (base.leq(x, p.i(y)) and base.leq(y, p.i(x))):
            continue
        if not up[idx[x]] & up[idx[y]] & candidates:
            return False, (x, y)
    return True, None


def condition_report(p: InvPoset) -> ConditionReport:
    witnesses: dict[str, object] = {}
    rep = lattice_report(p.base)
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


def is_projective_dual(
    p: Poset | InvPoset, variety: str
) -> tuple[bool, ConditionReport]:
    """Theorem-based projectivity decision on the dual object.

    bdl needs a nonempty lattice; demorgan needs m1, m2, m3; kleene
    needs m2, m3, k1, k2 on a Kleene object.
    """
    if variety not in VARIETIES:
        raise PreconditionError(f"unknown variety {variety!r}")
    if variety == "bdl":
        base = p.base if isinstance(p, InvPoset) else p
        rep = lattice_report(base)
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


def _check_embedding(p: InvPoset, target: InvPoset, vectors: dict[str, str]) -> InvMorphism:
    e = make_inv_morphism(p, target, vectors)
    e.check()
    seen: dict[str, str] = {}
    for x in p.elements:
        if vectors[x] in seen:
            raise ValidationError(
                f"embedding not injective: {seen[vectors[x]]!r} and {x!r}",
                witness=x,
            )
        seen[vectors[x]] = x
    for x in p.elements:
        for y in p.elements:
            if target.base.leq(vectors[x], vectors[y]) and not p.base.leq(x, y):
                raise ValidationError(
                    f"embedding not order-reflecting on ({x!r}, {y!r})",
                    witness=(x, y),
                )
    return e


def canonical_embedding(
    p: InvPoset, prune: bool = False
) -> tuple[int, InvMorphism]:
    """Embed p into power(DIAMOND, n) with one coordinate per element.

    The coordinate at q classifies each point against the principal
    downset of q.  The result is injective, monotone, inv-commuting and
    order-reflecting; this contract is re-verified after construction.
    With prune=True, coordinates that are redundant for the contract are
    greedily dropped (first coordinate kept), shrinking oracle searches.
    """
    columns = _columns(p, prune)
    # the ambient power is materialized; 4^7 points is already past desk
    # scale, so refuse rather than thrash
    if len(columns) > 6:
        raise SizeGuardError(
            f"embedding ambient D^{len(columns)} too large; prune or shrink the input"
        )
    return _embed(p, columns)


def oracle_embedding(p: InvPoset) -> tuple[int, InvMorphism]:
    """`canonical_embedding(p, prune=True)`, refused by the oracle's
    dimension guard before its ambient power of DIAMOND is built."""
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
    up = p.base.up_masks
    inv_up = _inv_up_masks(p)
    # column q separates x !<= y when y <= q and x !<= q, or i(x) <= q
    # and i(y) !<= q; every such pair needs a kept separating column, and
    # injectivity then follows by antisymmetry
    separating = [
        (up[y] & ~up[x]) | (inv_up[x] & ~inv_up[y])
        for x in range(n)
        for y in range(n)
        if not up[x] >> y & 1
    ]
    kept = (1 << n) - 1
    for k in reversed(range(n)):
        if kept.bit_count() == 1:
            break
        trial = kept & ~(1 << k)
        if all(s & trial for s in separating):
            kept = trial
    return list(bits(kept))


def _inv_up_masks(p: InvPoset) -> list[int]:
    """The up-mask of i(x) for each point x."""
    base = p.base
    return [base.up_masks[base.index[p.i(x)]] for x in p.elements]


def _embed(p: InvPoset, columns: list[int]) -> tuple[int, InvMorphism]:
    # the coordinate at q classifies x against the principal downset of
    # q and its De Morgan complement: x <= q and i(x) !<= q -> "2", x <= q
    # only -> "0", i(x) !<= q only -> "1", neither -> "3"
    n = len(columns)
    target = power(DIAMOND, n)
    up, inv_up = p.base.up_masks, _inv_up_masks(p)
    vectors = {
        x: "".join("1320"[2 * (up[k] >> q & 1) + (inv_up[k] >> q & 1)] for q in columns)
        for k, x in enumerate(p.elements)
    }
    return n, _check_embedding(p, target, vectors)


def _ambient(e: InvMorphism, n: int, variety: str) -> InvPoset:
    """The embedding's codomain power(DIAMOND, n), or its Kleene part."""
    if len(e.cod) != 4**n:
        raise PreconditionError(
            f"embedding codomain has {len(e.cod)} points, not the {4**n} of D^{n}"
        )
    return kleene_part(e.cod) if variety == "kleene" else e.cod


def _restriction_to_image(p: InvPoset, e: InvMorphism) -> dict[str, str]:
    return {e(x): x for x in p.elements}


def build_retraction(
    p: InvPoset, variety: str, embedding: tuple[int, InvMorphism] | None = None
) -> InvMorphism:
    """Constructive retraction of power(DIAMOND, n) (or its Kleene part)
    onto the embedded copy of p.

    Follows the proofs of the projectivity theorems: fixed vectors go to
    a fixed point squeezed between the join of the image elements below
    and the meet of those above; other vectors take the join or the meet
    according to the first non-fixed coordinate.  The output is verified
    to be a morphism restricting to the identity on the image.
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
    n, e = embedding if embedding is not None else canonical_embedding(p)
    if n > 6:
        raise SizeGuardError(
            f"retraction ambient D^{n} too large; pass a pruned embedding"
        )
    dom = _ambient(e, n, variety)
    image = _restriction_to_image(p, e)
    base = p.base

    idx, image_mask = dom.base.index, dom.base.mask(image)

    def originals_below(v: str) -> list[str]:
        below = dom.base.down_masks[idx[v]] & image_mask
        return [image[w] for w in dom.base.members(below)]

    def originals_above(v: str) -> list[str]:
        above = dom.base.up_masks[idx[v]] & image_mask
        return [image[w] for w in dom.base.members(above)]

    def fixed_between(lo: str | None, hi: str | None) -> str:
        for y in p.fixed_points:
            if lo is not None and not base.leq(lo, y):
                continue
            if hi is not None and not base.leq(y, hi):
                continue
            return y
        raise ValidationError("no eligible fixed point; input not projective?")

    mapping: dict[str, str] = {}
    if variety == "demorgan":
        for v in dom.elements:
            if v in image:
                mapping[v] = image[v]
            elif dom.i(v) == v:
                lo = base.join(originals_below(v))
                hi = base.meet(originals_above(v))
                mapping[v] = fixed_between(lo, hi)
            else:
                m = next(c for c in v if c in "23")
                if m == "2":
                    t = base.join(originals_below(v))
                else:
                    t = base.meet(originals_above(v))
                assert t is not None
                mapping[v] = t
    else:
        lower = [v for v in dom.elements if all(c in "201" for c in v)]
        for v in lower:
            if v in image:
                mapping[v] = image[v]
                continue
            lo = base.join(originals_below(v))
            if lo is None:
                raise ValidationError(f"join of lower originals missing at {v!r}")
            if dom.i(v) == v:
                mapping[v] = fixed_between(lo, None)
            else:
                mapping[v] = lo
        for v in dom.elements:
            if v not in mapping:
                mapping[v] = p.i(mapping[dom.i(v)])

    r = make_inv_morphism(dom, p, mapping)
    r.check()
    for x in p.elements:
        if r(e(x)) != x:
            raise ValidationError(f"retraction does not fix {x!r}", witness=x)
    return r


def oracle_retraction_search(
    p: InvPoset,
    embedding: tuple[int, InvMorphism] | None = None,
    variety: str = "demorgan",
) -> InvMorphism | None:
    """Exhaustive search for a retraction onto the embedded copy of p.

    Returns the first inv-commuting monotone map fixing the image, in
    canonical order, or None after exhausting the space.  Guarded to
    embeddings of dimension at most 4.
    """
    if variety not in ("demorgan", "kleene"):
        raise PreconditionError("oracle supports demorgan and kleene")
    if embedding is None:
        _oracle_guard(len(p.elements))  # the unpruned dimension
        embedding = canonical_embedding(p)
    n, e = embedding
    _oracle_guard(n)
    dom = _ambient(e, n, variety)
    forced = {
        v: (x,) for v, x in _restriction_to_image(p, e).items() if v in dom.base
    }
    f = next(search_maps(dom.base, p.base, forced, dom.inv, p.inv), None)
    return None if f is None else make_inv_morphism(dom, p, f)


def _oracle_guard(n: int) -> None:
    # the search is exhaustive over the 4^n points of the ambient, so the
    # oracle is kept to the small instances it cross-checks
    if n > 4:
        raise SizeGuardError(f"oracle guard: embedding dimension {n} exceeds 4")
