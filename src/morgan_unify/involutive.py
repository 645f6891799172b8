"""Involutive posets and their morphisms: duals of De Morgan algebras.

An `InvPoset` is a `Poset` that also stores its involution as `mate`,
the index of i(x) for each x; `inv`, `i()` and the point masks are
views of it, and every order view of `Poset` applies as it is.  An
`InvMorphism` is a `MonotoneMap` whose check also asks it to commute
with the involutions.  Provides the distinguished four-element object
DIAMOND, finite products and powers, the largest Kleene substructure,
and enumeration of both objects and morphisms at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator

from .errors import ValidationError
from .order import (
    MonotoneMap,
    Pair,
    Poset,
    _iso_signature,
    antitone_violation,
    bits,
    downset_masks,
    find_isomorphism,
    search_maps,
    validate_poset,
)


@dataclass(frozen=True)
class InvPoset(Poset):
    """Finite poset with an antitone involution (object of FPM)."""

    mate: tuple[int, ...]

    @cached_property
    def inv(self) -> dict[str, str]:
        return {x: self.elements[j] for x, j in zip(self.elements, self.mate)}

    def i(self, x: str) -> str:
        return self.inv[x]

    @cached_property
    def fixed_mask(self) -> int:
        """The bitmask of the fixed points, i(x) = x."""
        return sum(1 << k for k, j in enumerate(self.mate) if k == j)

    @cached_property
    def self_below_mask(self) -> int:
        """The bitmask of the self-below points, x <= i(x)."""
        up = self.up_masks
        return sum(1 << k for k, j in enumerate(self.mate) if up[k] >> j & 1)

    @cached_property
    def kleene_mask(self) -> int:
        """The bitmask of the points x comparable with i(x): x or i(x) is self-below."""
        below = self.self_below_mask
        return below | sum(1 << self.mate[k] for k in bits(below))

    @cached_property
    def is_kleene(self) -> bool:
        """True when every element is comparable with its involute."""
        return self.kleene_mask == (1 << len(self.mate)) - 1

    @cached_property
    def fixed_points(self) -> tuple[str, ...]:
        return self.members(self.fixed_mask)

    def restrict(self, keep: int) -> "InvPoset":
        """Induced substructure on the mask `keep`, which must be closed
        under the involution; the first point, in element order, whose
        involute is missing is the witness."""
        kept = list(bits(keep))
        for k in kept:
            if not keep >> self.mate[k] & 1:
                x = self.elements[k]
                raise ValidationError(
                    f"selection not involution-closed at {x!r}", witness=x
                )
        new_index = {k: r for r, k in enumerate(kept)}
        mate = tuple([new_index[self.mate[k]] for k in kept])
        sub = Poset.restrict(self, keep)
        return InvPoset(sub.elements, sub.up_masks, mate)


def make_invposet(base: Poset, inv: dict[str, str]) -> InvPoset:
    index = base.index
    mate = tuple([index[inv[x]] for x in base.elements])
    return InvPoset(base.elements, base.up_masks, mate)


def mirror_closure(
    lower_covers: list[Pair], fixed: Iterable[str], swapped: Iterable[str]
) -> tuple[list[Pair], dict[str, str]]:
    """Covers plus their involution mirrors, and the involution map that
    fixes `fixed` and swaps each v of `swapped` with ~v."""
    inv = {v: v for v in fixed}
    for v in swapped:
        inv[v] = "~" + v
        inv["~" + v] = v
    return mirror_covers(lower_covers, inv), inv


def mirror_covers(covers: list[Pair], inv: dict[str, str]) -> list[Pair]:
    """Cover pairs together with their involution mirrors, first-seen order."""
    out = list(covers)
    for lo, hi in covers:
        pair = (inv[hi], inv[lo])
        if pair not in out:
            out.append(pair)
    return out


def validate_involutive(base: Poset, inv: dict[str, str]) -> InvPoset:
    for x in base.elements:
        if x not in inv:
            raise ValidationError(f"involution undefined at {x!r}", witness=x)
        if inv[x] not in base:
            raise ValidationError(f"involution leaves carrier at {x!r}", witness=x)
    for x in base.elements:
        if inv[inv[x]] != x:
            raise ValidationError(
                f"not involutive at {x!r}: i(i({x!r})) = {inv[inv[x]]!r}", witness=x
            )
    p = make_invposet(base, inv)
    bad = antitone_violation(p, inv)
    if bad is not None:
        a, b = bad
        raise ValidationError(
            f"involution not antitone on {a!r} <= {b!r}", witness=(a, b)
        )
    return p


#: Dual of the one-generated free De Morgan algebra: 2 <= 0,1 <= 3,
#: involution fixes 0 and 1 and swaps 2 with 3.
DIAMOND = validate_involutive(
    validate_poset(["2", "0", "1", "3"], [("2", "0"), ("2", "1"), ("0", "3"), ("1", "3")]),
    {"0": "0", "1": "1", "2": "3", "3": "2"},
)


@dataclass(frozen=True)
class InvMorphism(MonotoneMap):
    """A monotone map between involutive posets that commutes with their
    involutions (morphism of FPM)."""

    def check(self) -> None:
        f = self.as_dict
        if set(f) != set(self.dom.elements):
            raise ValidationError("map is not total on its domain")
        for x in self.dom.elements:
            if f[self.dom.i(x)] != self.cod.i(f[x]):
                raise ValidationError(
                    f"involution commutation fails at {x!r}", witness=x
                )
        super().check()


def make_inv_morphism(dom: InvPoset, cod: InvPoset, mapping: dict[str, str]) -> InvMorphism:
    return InvMorphism(dom, cod, tuple([(x, mapping[x]) for x in dom.elements]))


def validate_inv_morphism(
    dom: InvPoset, cod: InvPoset, mapping: dict[str, str]
) -> InvMorphism:
    f = make_inv_morphism(dom, cod, mapping)
    f.check()
    return f


def product(p: InvPoset, q: InvPoset, sep: str = "") -> InvPoset:
    """Product in FPM: pairwise order, coordinatewise involution.

    Element names concatenate the factors' names (digit strings for
    powers of DIAMOND, matching the usual labelling of D^n).  The order
    is the product of the factors' orders: the up-mask of (a, b) holds
    b's up-mask once per point above a.
    """
    names: dict[str, None] = {}  # insertion-ordered
    for a in p.elements:
        for b in q.elements:
            name = a + sep + b
            if name in names:
                raise ValidationError(f"ambiguous product label {name!r}", name)
            names[name] = None
    width = len(q.elements)
    up = []
    for pu in p.up_masks:
        shifts = [j * width for j in bits(pu)]
        for qu in q.up_masks:
            u = 0
            for s in shifts:
                u |= qu << s
            up.append(u)
    mate = tuple([a * width + b for a in p.mate for b in q.mate])
    return InvPoset(tuple(names), tuple(up), mate)


def power(p: InvPoset, n: int, sep: str = "") -> InvPoset:
    """n-fold product; power(p, 1) is p itself."""
    if n < 0:
        raise ValidationError("power exponent must be nonnegative")
    if n == 0:
        return InvPoset(("",), (1,), (0,))
    return reduce(lambda acc, _: product(acc, p, sep), range(n - 1), p)


def kleene_part(p: InvPoset) -> InvPoset:
    """Largest substructure whose every element is comparable with its involute."""
    return p.restrict(p.kleene_mask)


def enumerate_inv_morphisms(p: InvPoset, q: InvPoset) -> Iterator[InvMorphism]:
    """All FPM-morphisms p -> q, each exactly once, deterministically.

    Searches involution orbits in a linear extension of the domain,
    pruning by monotonicity and commutation jointly.
    """
    for f in search_maps(p, q, dom_mate=p.mate, cod_mate=q.mate):
        yield make_inv_morphism(p, q, f)


def find_inv_isomorphism(p: InvPoset, q: InvPoset) -> dict[str, str] | None:
    return find_isomorphism(p, q, p.mate, q.mate)


def enumerate_invposets_upto(
    k: int, poset_classes: Iterable[Poset] | None = None
) -> Iterator[InvPoset]:
    """All involutive posets with at most k elements, one per class.

    Classes are up to order isomorphisms that commute with the
    involutions.  Level n grows from the two smaller levels:

    - each class of n - 1 points plus an isolated fixed point, listed
      last;
    - each class R of n - 2 points and each down-set D of R, plus a new
      maximal point m above D, listed last, and its involute i(m), a new
      minimal point below the up-set i(D), listed first; i(m) < m is
      forced when D meets i(D) and optional otherwise.

    Every class arises: a maximal fixed point is also minimal (i is
    antitone), so it is isolated; any other maximal point m has a
    minimal involute, and removing {m, i(m)} leaves a substructure
    closed under i, whose down-set below m is D.  Children are
    deduplicated by `find_inv_isomorphism` within buckets keyed by the
    order signature and the number of fixed points.  Element order is a
    linear extension, elements are named by their index, and the output
    order is deterministic, smaller classes first.

    `poset_classes` is accepted for callers of the earlier route, which
    took involutions of given poset classes, and is ignored.
    """
    if k < 0:
        return
    levels = [[InvPoset((), (), ())]]
    yield levels[0][0]
    for n in range(1, k + 1):
        levels.append(_grow_invposets(n, levels))
        yield from levels[n]


def _grow_invposets(n: int, levels: list[list[InvPoset]]) -> list[InvPoset]:
    """The classes of n points, grown from the classes of n - 1 and n - 2
    points in `levels`; see `enumerate_invposets_upto`."""
    top = 1 << (n - 1)
    children = []  # (up-masks, involution as an index map)
    for rep in levels[n - 1]:
        children.append(([*rep.up_masks, top], (*rep.mate, n - 1)))
    for rep in levels[n - 2] if n >= 2 else ():
        mate = rep.mate
        shifted = [u << 1 for u in rep.up_masks]
        grown_mate = (n - 1, *[jj + 1 for jj in mate], 0)
        for d in downset_masks(rep):
            i_d = 0
            for j in bits(d):
                i_d |= 1 << mate[j]
            up = [u | top if d >> j & 1 else u for j, u in enumerate(shifted)]
            low = 1 | i_d << 1
            children.append(([low | top, *up, top], grown_mate))
            if not d & i_d:
                children.append(([low, *up, top], grown_mate))
    names = tuple([str(j) for j in range(n)])
    buckets: dict[object, list[InvPoset]] = {}
    grown = []
    for up, mate in children:
        cand = InvPoset(names, tuple(up), mate)
        fixed = sum(1 for j, jj in enumerate(mate) if j == jj)
        known = buckets.setdefault((_iso_signature(cand), fixed), [])
        if not any(find_inv_isomorphism(cand, r) is not None for r in known):
            known.append(cand)
            grown.append(cand)
    return grown
