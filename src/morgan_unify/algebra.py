"""Finite bounded distributive lattices and De Morgan/Kleene algebras.

Algebras are stored by their order, whose meets and joins the carrier
`Poset` computes by mask lookup.  Variety tags are derived at
validation time.  Maps between algebras are not part of the library:
every decision is made on the dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as cartesian

from .errors import ValidationError
from .order import Pair, Poset, antitone_violation, lattice_report

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


def _derive_tags(carrier: Poset, neg: dict[str, str] | None) -> frozenset[str]:
    tags = {TAG_BDL}
    if neg is not None:
        tags.add(TAG_DEMORGAN)
        elems = carrier.elements
        lows = [carrier.meet((a, neg[a])) for a in elems]
        highs = [carrier.join((b, neg[b])) for b in elems]
        # Kleene: each low below each high, so the lows' join below the highs' meet
        if carrier.leq(carrier.join(lows), carrier.meet(highs)):
            tags.add(TAG_KLEENE)
            bottom = carrier.bottom()
            if all(low == bottom for low in lows):
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
