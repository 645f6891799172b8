"""Finite duality functors between algebras and (involutive) posets.

Object level: join-irreducibles vs downset algebras, with the extra
involution/negation layer for the De Morgan and Kleene cases.  Morphism
level: the contravariant dual of a homomorphism and the preimage
homomorphism of a monotone map.
"""

from __future__ import annotations

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    TAG_BDL,
    TAG_DEMORGAN,
    make_homomorphism,
    trusted_algebra,
)
from .errors import PreconditionError, ValidationError
from .involutive import InvMorphism, InvPoset, make_inv_morphism, validate_involutive
from .order import MonotoneMap, Poset, bits, downset_masks, make_monotone_map


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
    covers = a.carrier.covers()
    lower_count = {x: 0 for x in a.elements}
    for lo, hi in covers:
        lower_count[hi] += 1
    keep = [x for x in a.elements if x != a.zero and lower_count[x] == 1]
    return a.carrier.restrict(keep)


def _inv_on_irreducibles(a: FiniteAlgebra, ji: Poset) -> dict[str, str]:
    """The dual involution: i(x) = meet of the complement of {n(b) : b >= x}."""
    assert a.neg is not None
    out = {}
    for x in ji.elements:
        excluded = {a.neg[b] for b in a.carrier.up_of([x])}
        rest = [c for c in a.elements if c not in excluded]
        out[x] = a.meet_all(rest)
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
    base = p.base
    masks, carrier = _downset_lattice(base)
    mate = [1 << base.index[p.i(x)] for x in base.elements]
    full = (1 << len(mate)) - 1
    neg = {}
    for d, name in zip(masks, carrier.elements):
        image = sum(mate[i] for i in bits(d))
        neg[name] = _downset_name(base, full & ~image)
    return trusted_algebra(carrier, neg)


def dual_of_hom(h: Homomorphism) -> MonotoneMap | InvMorphism:
    """Contravariant dual of a homomorphism.

    Sends each join-irreducible x of the codomain to the meet of the
    h-preimage filter; lands in the irreducibles of the domain or the
    input was not valid.  Returns an InvMorphism when h preserves
    negation on genuinely De Morgan algebras.
    """
    a, b = h.dom, h.cod
    ji_a = join_irreducibles(a)
    ji_b = join_irreducibles(b)
    mapping = {}
    for x in ji_b.elements:
        fiber = [y for y in a.elements if b.carrier.leq(x, h(y))]
        target = a.meet_all(fiber)
        if target not in ji_a:
            raise ValidationError(
                f"dual image of {x!r} is join-reducible: {target!r}", witness=x
            )
        mapping[x] = target
    if a.neg is not None and b.neg is not None:
        dom_iv = validate_involutive(ji_b, _inv_on_irreducibles(b, ji_b))
        cod_iv = validate_involutive(ji_a, _inv_on_irreducibles(a, ji_a))
        return make_inv_morphism(dom_iv, cod_iv, mapping)
    return make_monotone_map(ji_b, ji_a, mapping)


def hom_of_map(f: MonotoneMap | InvMorphism) -> Homomorphism:
    """Preimage homomorphism between downset algebras, contravariant to f."""
    if isinstance(f, InvMorphism):
        dom_p, cod_p = f.dom.base, f.cod.base
        alg_dom = demorgan_from_dual(f.cod)
        alg_cod = demorgan_from_dual(f.dom)
    else:
        dom_p, cod_p = f.dom, f.cod
        alg_dom = downset_algebra(cod_p)
        alg_cod = downset_algebra(dom_p)
    image = [cod_p.index[f(x)] for x in dom_p.elements]
    mapping = {}
    for d in downset_masks(cod_p):
        preimage = sum(1 << k for k, j in enumerate(image) if d >> j & 1)
        mapping[_downset_name(cod_p, d)] = _downset_name(dom_p, preimage)
    return make_homomorphism(alg_dom, alg_cod, mapping)


def canonical_iso(a: FiniteAlgebra) -> Homomorphism:
    """The unit a -> downset_algebra(join_irreducibles(a)), x -> (x] cap JI."""
    ji = join_irreducibles(a)
    double = downset_algebra(ji)
    mapping = {}
    for x in a.elements:
        below = sum(1 << k for k, j in enumerate(ji.elements) if a.carrier.leq(j, x))
        mapping[x] = _downset_name(ji, below)
    return make_homomorphism(a, double, mapping)

