"""Finite bounded distributive lattices and De Morgan/Kleene algebras.

Algebras are stored by their order; meet and join are computed from it
on demand and memoized.  Variety tags are derived at validation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as cartesian
from typing import Iterator

from .errors import ValidationError
from .order import Pair, Poset, antitone_violation, lattice_report, search_maps

TAG_BDL = "bounded-distributive"
TAG_DEMORGAN = "de-morgan"
TAG_KLEENE = "kleene"
TAG_BOOLEAN = "boolean"


@dataclass(frozen=True)
class FiniteAlgebra:
    carrier: Poset
    neg_pairs: tuple[Pair, ...] | None
    variety_tags: frozenset[str]

    @cached_property
    def neg(self) -> dict[str, str] | None:
        return dict(self.neg_pairs) if self.neg_pairs is not None else None

    @property
    def elements(self) -> tuple[str, ...]:
        return self.carrier.elements

    def __len__(self) -> int:
        return len(self.carrier.elements)

    @cached_property
    def zero(self) -> str:
        bot = self.carrier.bottom()
        assert bot is not None
        return bot

    @cached_property
    def one(self) -> str:
        top = self.carrier.top()
        assert top is not None
        return top

    @cached_property
    def _meet_table(self) -> dict[Pair, str]:
        out = {}
        for a in self.elements:
            for b in self.elements:
                m = self.carrier.meet((a, b))
                assert m is not None
                out[a, b] = m
        return out

    @cached_property
    def _join_table(self) -> dict[Pair, str]:
        out = {}
        for a in self.elements:
            for b in self.elements:
                j = self.carrier.join((a, b))
                assert j is not None
                out[a, b] = j
        return out

    def meet(self, a: str, b: str) -> str:
        return self._meet_table[a, b]

    def join(self, a: str, b: str) -> str:
        return self._join_table[a, b]

    def meet_all(self, xs) -> str:
        out = self.one
        for x in xs:
            out = self.meet(out, x)
        return out

    def join_all(self, xs) -> str:
        out = self.zero
        for x in xs:
            out = self.join(out, x)
        return out


def _derive_tags(carrier: Poset, neg: dict[str, str] | None) -> frozenset[str]:
    tags = {TAG_BDL}
    if neg is not None:
        tags.add(TAG_DEMORGAN)
        elems = carrier.elements
        join = {p: carrier.join(p) for p in cartesian(elems, repeat=2)}
        meet = {p: carrier.meet(p) for p in cartesian(elems, repeat=2)}
        if all(
            carrier.leq(meet[a, neg[a]], join[b, neg[b]])
            for a in elems
            for b in elems
        ):
            tags.add(TAG_KLEENE)
            bottom = carrier.bottom()
            if all(meet[a, neg[a]] == bottom for a in elems):
                tags.add(TAG_BOOLEAN)
    return frozenset(tags)


def validate_algebra(carrier: Poset, neg: dict[str, str] | None = None) -> FiniteAlgebra:
    """Check lattice structure, distributivity, and the optional negation.

    The one-element algebra is legal; it is implicitly equipped with the
    identity negation and carries every variety tag.
    """
    if not carrier.elements:
        raise ValidationError("algebra carrier must be nonempty")
    if len(carrier.elements) == 1 and neg is None:
        x = carrier.elements[0]
        neg = {x: x}

    report = lattice_report(carrier)
    if not report.is_nonempty_lattice:
        a, b = report.witness
        raise ValidationError(
            f"carrier is not a lattice: pair ({a!r}, {b!r}) lacks a bound",
            witness=(a, b),
        )

    elems = carrier.elements
    join = {p: carrier.join(p) for p in cartesian(elems, repeat=2)}
    meet = {p: carrier.meet(p) for p in cartesian(elems, repeat=2)}
    for a in elems:
        for b in elems:
            for c in elems:
                lhs = meet[a, join[b, c]]
                rhs = join[meet[a, b], meet[a, c]]
                if lhs != rhs:
                    raise ValidationError(
                        f"not distributive at ({a!r}, {b!r}, {c!r})",
                        witness=(a, b, c),
                    )

    if neg is not None:
        for a in elems:
            if a not in neg or neg[a] not in carrier:
                raise ValidationError(f"negation undefined at {a!r}", witness=a)
        for a in elems:
            if neg[neg[a]] != a:
                raise ValidationError(f"negation not involutive at {a!r}", witness=a)
        bad = antitone_violation(carrier, neg)
        if bad is not None:
            a, b = bad
            raise ValidationError(
                f"negation not antitone on {a!r} <= {b!r}", witness=(a, b)
            )

    tags = _derive_tags(carrier, neg)
    neg_pairs = tuple((x, neg[x]) for x in elems) if neg is not None else None
    return FiniteAlgebra(carrier, neg_pairs, tags)


def trusted_algebra(carrier: Poset, neg: dict[str, str] | None) -> FiniteAlgebra:
    """Constructor for algebras correct by construction (e.g. downset algebras).

    Skips the triple-wise distributivity scan; tags are still derived
    honestly.
    """
    neg_pairs = tuple((x, neg[x]) for x in carrier.elements) if neg else None
    return FiniteAlgebra(carrier, neg_pairs, _derive_tags(carrier, neg))


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
                if f[a.meet(x, y)] != b.meet(f[x], f[y]):
                    raise ValidationError(
                        f"meet not preserved at ({x!r}, {y!r})", witness=(x, y)
                    )
                if f[a.join(x, y)] != b.join(f[x], f[y]):
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
    from .duality import join_irreducibles

    ji_dom, ji_cod = join_irreducibles(dom), join_irreducibles(cod)
    found = []
    for g in search_maps(ji_cod, ji_dom):
        mapping = {
            a: cod.join_all(j for j in ji_cod.elements if dom.carrier.leq(g[j], a))
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
