"""Finite duality between algebras and (involutive) posets, on objects.

Join-irreducibles vs downset algebras, with the extra involution/negation
layer for the De Morgan and Kleene cases.  No decision needs the
functors on morphisms; `tests/morphisms.py` keeps them as the suite's
cross-check.
"""

from __future__ import annotations

from .algebra import TAG_BDL, TAG_DEMORGAN, FiniteAlgebra, trusted_algebra
from .errors import PreconditionError, ValidationError
from .involutive import InvPoset, validate_involutive
from .order import Poset, bits, downset_masks


def _downset_name(p: Poset, mask: int) -> str:
    return "{" + ",".join(p.members(mask)) + "}"


def _downset_lattice(p: Poset) -> tuple[list[int], Poset]:
    """The down-set masks of p in (size, name) order, and the poset of
    their names ordered by inclusion."""
    names = {d: _downset_name(p, d) for d in downset_masks(p)}
    masks = sorted(names, key=lambda d: (d.bit_count(), names[d]))
    up = [sum(1 << k for k, e in enumerate(masks) if not d & ~e) for d in masks]
    return masks, Poset(tuple([names[d] for d in masks]), tuple(up))


def downset_algebra(p: Poset) -> FiniteAlgebra:
    """Downsets of p ordered by inclusion; distributive by construction."""
    return trusted_algebra(_downset_lattice(p)[1], None)


def join_irreducibles(a: FiniteAlgebra) -> Poset:
    """Subposet of elements with exactly one lower cover (nonzero, not a join
    of strictly smaller elements)."""
    if TAG_BDL not in a.variety_tags:
        raise PreconditionError("join_irreducibles needs a bounded-distributive algebra")
    lower = [0] * len(a)  # the number of lower covers of each element
    index = a.carrier.index
    for _, hi in a.carrier.covers():
        lower[index[hi]] += 1
    return a.carrier.restrict(sum(1 << x for x, c in enumerate(lower) if c == 1))


def _inv_on_irreducibles(a: FiniteAlgebra, ji: Poset) -> dict[str, str]:
    """The dual involution: i(x) = meet of the complement of {n(b) : b >= x}."""
    assert a.neg is not None
    out = {}
    for x in ji.elements:
        excluded = {a.neg[b] for b in a.carrier.up_of([x])}
        rest = [c for c in a.elements if c not in excluded]
        out[x] = a.carrier.meet(rest)
    return out


def demorgan_dual(a: FiniteAlgebra) -> InvPoset:
    """Dual involutive poset of a De Morgan algebra."""
    if TAG_DEMORGAN not in a.variety_tags or a.neg is None:
        raise PreconditionError("demorgan_dual needs a de-morgan algebra")
    ji = join_irreducibles(a)
    inv = _inv_on_irreducibles(a, ji)
    for x, y in inv.items():
        if y not in ji:
            raise ValidationError(
                f"dual involution leaves the irreducibles at {x!r}", witness=x
            )
    return validate_involutive(ji, inv)


def demorgan_from_dual(p: InvPoset) -> FiniteAlgebra:
    """De Morgan algebra of downsets of p with X' = carrier minus i(X)."""
    masks, carrier = _downset_lattice(p)
    full = (1 << len(p)) - 1
    neg = {}
    for d, name in zip(masks, carrier.elements):
        image = sum(1 << p.mate[i] for i in bits(d))
        neg[name] = _downset_name(p, full & ~image)
    return trusted_algebra(carrier, neg)
