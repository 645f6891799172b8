"""The algebra-morphism layer of the finite dualities, kept beside the tests.

No CLI or library path maps algebras to algebras; the suite uses these
to cross-check the object-level functors against Birkhoff duality at the
morphism level.  `Homomorphism` with `make_homomorphism`,
`validate_homomorphism`, `compose_homs` and `enumerate_homomorphisms`
are the bounded-lattice (and negation-preserving) maps between finite
algebras; `dual_of_hom` and `hom_of_map` are the contravariant functors
on morphisms, `canonical_iso` the unit a -> downsets of its
join-irreducibles, and `compose_inv` composition of involutive-poset
morphisms.  `strictly_below` and `is_identity` are the order and map
predicates the tests read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from morgan_unify import ValidationError
from morgan_unify.algebra import FiniteAlgebra
from morgan_unify.duality import (
    _downset_name,
    _inv_on_irreducibles,
    demorgan_from_dual,
    downset_algebra,
    join_irreducibles,
)
from morgan_unify.involutive import (
    InvMorphism,
    make_inv_morphism,
    validate_involutive,
)
from morgan_unify.order import (
    MonotoneMap,
    Pair,
    Poset,
    downset_masks,
    make_monotone_map,
    search_maps,
)


def strictly_below(p: Poset, x: str, y: str) -> bool:
    return x != y and p.leq(x, y)


def is_identity(f: MonotoneMap | InvMorphism) -> bool:
    return f.dom == f.cod and all(a == b for a, b in f.mapping)


@dataclass(frozen=True)
class Homomorphism:
    dom: FiniteAlgebra
    cod: FiniteAlgebra
    mapping: tuple[Pair, ...]

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def __call__(self, x: str) -> str:
        return self.as_dict[x]

    def check(self) -> None:
        f = self.as_dict
        a, b = self.dom, self.cod
        if set(f) != set(a.elements):
            raise ValidationError("map is not total on its domain")
        if f[a.zero] != b.zero:
            raise ValidationError(f"0 not preserved: {a.zero!r} -> {f[a.zero]!r}")
        if f[a.one] != b.one:
            raise ValidationError(f"1 not preserved: {a.one!r} -> {f[a.one]!r}")
        for x in a.elements:
            for y in a.elements:
                if f[a.carrier.meet((x, y))] != b.carrier.meet((f[x], f[y])):
                    raise ValidationError(
                        f"meet not preserved at ({x!r}, {y!r})", witness=(x, y)
                    )
                if f[a.carrier.join((x, y))] != b.carrier.join((f[x], f[y])):
                    raise ValidationError(
                        f"join not preserved at ({x!r}, {y!r})", witness=(x, y)
                    )
        if a.neg is not None and b.neg is not None:
            for x in a.elements:
                if f[a.neg[x]] != b.neg[f[x]]:
                    raise ValidationError(
                        f"negation not preserved at {x!r}", witness=x
                    )


def make_homomorphism(
    dom: FiniteAlgebra, cod: FiniteAlgebra, mapping: dict[str, str]
) -> Homomorphism:
    return Homomorphism(dom, cod, tuple((x, mapping[x]) for x in dom.elements))


def validate_homomorphism(
    dom: FiniteAlgebra, cod: FiniteAlgebra, mapping: dict[str, str]
) -> Homomorphism:
    h = make_homomorphism(dom, cod, mapping)
    h.check()
    return h


def compose_homs(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    if f.cod != g.dom:
        raise ValidationError("composition mismatch: cod(f) != dom(g)")
    return make_homomorphism(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})


def enumerate_homomorphisms(
    dom: FiniteAlgebra, cod: FiniteAlgebra
) -> Iterator[Homomorphism]:
    """All homomorphisms dom -> cod (negation-preserving when both carry it).

    By Birkhoff duality a bounded-lattice homomorphism is the same as a
    monotone map g from the join-irreducibles of cod to those of dom: it
    sends a to the join of the j with g(j) <= a.  The search runs over
    these small duals; each candidate is checked in full, and the
    homomorphisms are listed by their values along dom's linear
    extension, each in cod's element order.
    """
    ji_dom, ji_cod = join_irreducibles(dom), join_irreducibles(cod)
    found = []
    for g in search_maps(ji_cod, ji_dom):
        mapping = {
            a: cod.carrier.join([j for j in ji_cod.elements if dom.carrier.leq(g[j], a)])
            for a in dom.elements
        }
        h = make_homomorphism(dom, cod, mapping)
        try:
            h.check()
        except ValidationError:
            continue
        found.append(h)
    order = dom.carrier.linear_extension()
    found.sort(key=lambda h: [cod.carrier.index[h(x)] for x in order])
    yield from found


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
        target = a.carrier.meet(fiber)
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
        dom_p, cod_p = f.dom, f.cod
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


def compose_inv(g: InvMorphism, f: InvMorphism) -> InvMorphism:
    if f.cod != g.dom:
        raise ValidationError("composition mismatch: cod(f) != dom(g)")
    return make_inv_morphism(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})
