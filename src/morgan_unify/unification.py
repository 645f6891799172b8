"""Classification of unification instances over the finite duals.

Solvability tests, the Kleene and De Morgan unification cores, the
three classification theorems with machine-checkable certificates,
the nullarity pattern table with its search and verifier, the witness
families T_n with their unifier schemas, the generality preorder, and a
bounded unifier enumerator used as the audit oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian
from typing import Iterator, Union

from .errors import PreconditionError, SizeGuardError, ValidationError
from .involutive import (
    InvMorphism,
    InvPoset,
    enumerate_inv_morphisms,
    enumerate_invposets_upto,
    make_inv_morphism,
    mirror_closure,
    validate_involutive,
)
from .order import (
    MonotoneMap,
    Poset,
    bits,
    enumerate_monotone_maps,
    enumerate_posets_upto,
    identity_map,
    is_three_complete,
    lattice_report,
    make_monotone_map,
    search_maps,
    validate_poset,
)
from .projectivity import condition_report, is_projective_dual, self_below_subposet

UNITARY = "unitary"
FINITARY = "finitary"
NULLARY = "nullary"

Unifier = MonotoneMap


@dataclass(frozen=True)
class MostGeneral:
    unifier: Unifier


@dataclass(frozen=True)
class MuSet:
    members: tuple[Unifier, ...]


@dataclass(frozen=True)
class NullPattern:
    family: str
    anchors: tuple[tuple[str, str], ...]

    @property
    def as_dict(self) -> dict[str, str]:
        return dict(self.anchors)


Certificate = Union[MostGeneral, MuSet, NullPattern]


@dataclass(frozen=True)
class UnifClassification:
    solvable: bool
    utype: str | None
    certificate: Certificate | None
    core: InvPoset | None

    def __post_init__(self):
        if self.solvable:
            expected = {UNITARY: MostGeneral, FINITARY: MuSet, NULLARY: NullPattern}
            assert self.utype in expected
            assert isinstance(self.certificate, expected[self.utype])
        else:
            assert self.utype is None and self.certificate is None


def _require_variety(q, variety: str) -> None:
    if variety == "bdl":
        if not isinstance(q, Poset) or isinstance(q, InvPoset):
            raise PreconditionError("bdl instances are bare posets")
    elif variety in ("kleene", "demorgan"):
        if not isinstance(q, InvPoset):
            raise PreconditionError(f"{variety} instances are involutive posets")
        if variety == "kleene" and not q.is_kleene:
            raise PreconditionError("kleene instance must be a Kleene object")
    else:
        raise PreconditionError(f"unknown variety {variety!r}")


def is_solvable(q, variety: str) -> bool:
    """bdl: nonempty carrier; kleene/demorgan: a fixed point exists."""
    _require_variety(q, variety)
    if variety == "bdl":
        return bool(q.elements)
    return bool(q.fixed_points)


def kleene_core(q: InvPoset) -> InvPoset:
    """Substructure every Kleene unifier factors through.

    Carrier keeps the points tied to a fixed point from below or above.
    The order keeps x <= y only when both sit on the same side of their
    involutes or a fixed point separates them; the three clauses are
    already transitive on Kleene objects, which is re-checked here.
    """
    if not q.is_kleene:
        raise PreconditionError("kleene_core needs a Kleene object")
    down, up = q.down_masks, q.up_masks
    mate, fixed, below = q.mate, q.fixed_mask, q.self_below_mask
    above = sum(1 << i for i, j in enumerate(mate) if up[j] >> i & 1)
    inside = sum(1 << i for i, (d, u) in enumerate(zip(down, up)) if (d | u) & fixed)
    # kept[i]: the points y >= x = elements[i] that the three clauses keep
    kept = [1 << i for i in range(len(up))]
    for i in bits(inside):
        u = up[i] & inside
        k = 0
        if below >> i & 1:
            k |= u & below
        if above >> i & 1:
            k |= u & above
        for z in bits(up[i] & fixed):
            k |= up[z] & inside
        kept[i] = k
    names = q.elements
    for i in bits(inside):
        for j in bits(kept[i]):
            extra = kept[j] & ~kept[i]
            if extra:
                x, y, z = names[i], names[j], names[(extra & -extra).bit_length() - 1]
                raise ValidationError(
                    "kleene core clauses not transitive (unexpected on a "
                    f"Kleene object): {x!r} <= {y!r} <= {z!r}",
                    witness=(x, y, z),
                )
    core_base = Poset(names, tuple(kept)).restrict(inside)
    return validate_involutive(core_base, q.inv)


def demorgan_core(q: InvPoset) -> InvPoset:
    """Substructure every De Morgan unifier factors through.

    Keeps x when some single point sits below x, its involute, and a
    fixed point simultaneously; the order is plain restriction.
    """
    down = q.down_masks
    low = 0  # the points below some fixed point
    for z in bits(q.fixed_mask):
        low |= down[z]
    return q.restrict(sum(1 << x for x, j in enumerate(q.mate) if down[x] & down[j] & low))


def core_of(q: InvPoset, variety: str) -> InvPoset:
    return kleene_core(q) if variety == "kleene" else demorgan_core(q)


def interval_structure(p: InvPoset, x: str) -> InvPoset:
    """The involution-closed interval [x, i(x)] with inherited structure."""
    k = p.index[x]
    return p.restrict(p.up_masks[k] & p.down_masks[p.mate[k]])


def inclusion_unifier(sub: InvPoset, q: InvPoset) -> InvMorphism:
    return make_inv_morphism(sub, q, {x: x for x in sub.elements})


#: per involutive variety: the conditions a projective interval meets
#: (the unitary test on the core, the finitary test on each piece), and
#: the nullary family named by the first of them some piece fails.  On a
#: lattice m3 holds (i is a dual automorphism, so the join of self-below
#: points below each other's involutes is self-below): demorgan tests m1
#: and m2 only
_INTERVAL_TESTS = {
    "kleene": (("k1", "m3"), ("k1", "k2")),
    "demorgan": (("m1", "m2"), ("m1", "m2")),
}


def classify(q, variety: str) -> UnifClassification:
    """Unification type with a certificate, per the classification theorems.

    Unsolvable instances report solvable=False and nothing else.
    Certificates: unitary carries the inclusion of the core (identity
    for bdl), finitary the interval mu-set, nullary a pattern tuple
    located in the structure the theorem case analysis names.

    Finitarity is decided once, on the candidate mu-set members: [x, y]
    for minimal x below maximal y (bdl), [m, i(m)] for minimal core
    points m.  Every other interval lies inside one of these, and each
    condition passes down to sub-intervals, so checking them suffices.
    """
    _require_variety(q, variety)
    if not is_solvable(q, variety):
        return UnifClassification(False, None, None, None)

    if variety == "bdl":
        if lattice_report(q).is_nonempty_lattice:
            return UnifClassification(True, UNITARY, MostGeneral(identity_map(q)), None)
        core = None
        up, down = q.up_masks, q.down_masks
        pieces = [
            q.restrict(up[x] & down[y])
            for x, d in enumerate(down)
            if d == 1 << x  # x minimal
            for y in bits(up[x])
            if up[y] == 1 << y  # y maximal
        ]
        finitary = all(lattice_report(p).is_nonempty_lattice for p in pieces)
        family, struct, include = "bdl", q, make_monotone_map
    else:
        tests, families = _INTERVAL_TESTS[variety]
        core = struct = core_of(q, variety)
        rep = condition_report(core)
        if all(getattr(rep, t) for t in tests):
            return UnifClassification(
                True, UNITARY, MostGeneral(inclusion_unifier(core, q)), core
            )
        pieces = [interval_structure(core, m) for m in core.minimals()]
        reports = [condition_report(p) for p in pieces]
        failed = [
            f for t, f in zip(tests, families) if not all(getattr(r, t) for r in reports)
        ]
        # the theorems' finitary head: the core itself fails the first test
        finitary = not failed and not getattr(rep, tests[0])
        family = failed[0] if failed else families[-1]
        include = make_inv_morphism

    if finitary:
        members = tuple([include(p, q, {z: z for z in p.elements}) for p in pieces])
        return UnifClassification(True, FINITARY, MuSet(members), core)
    anchors = find_null_pattern(struct, family)
    if anchors is None:
        raise ValidationError(
            f"classification says nullary but no {family!r} pattern found; "
            "this contradicts the classification theorem"
        )
    return UnifClassification(
        True, NULLARY, NullPattern(family, tuple(sorted(anchors.items()))), core
    )


def mu_set(q, variety: str) -> list[Unifier]:
    """The interval mu-set of a finitary instance: the members of
    `classify`'s certificate.

    bdl: inclusions of [x, y] for minimal x below maximal y.  kleene and
    demorgan: inclusions of the core intervals [x, i(x)] at minimal
    core points.  Members are pairwise incomparable and every unifier
    factors through one of them.  Any other instance, unsolvable ones
    included, raises PreconditionError.
    """
    result = classify(q, variety)
    if result.utype != FINITARY:
        raise PreconditionError("mu_set asked of a non-finitary instance")
    return list(result.certificate.members)


# ---------------------------------------------------------------------------
# nullarity patterns

ANY = "any"
FIXED = "fixed"
SELF_BELOW = "self_below"


@dataclass(frozen=True)
class Pattern:
    """A forbidden configuration: a map from a fixed shape into the dual.

    `anchors` are the one-letter anchor names in certificate order, and
    each cover "lh" in `covers` asks for l <= h; every cover lists its
    lower anchor first in `anchors`.  The first `core` anchors are
    searched; every later anchor takes the first point, in element
    order, of its kind above its lower covers.  `kinds` holds each
    anchor's kind (ANY when absent).  The clause is negative: no point
    of kind `clause[0]` lies above every anchor in `clause[1]` and below
    every anchor in `clause[2]`; it names searched anchors only.
    """

    anchors: str
    covers: str
    core: int
    kinds: dict[str, str]
    clause: tuple[str, str, str]


_CROWN = "xa xb ac ad bc bd"
_TRIPLE = "xa xb xc ad bd ae ce bf cf dy ez fw"
_NOBODY_BETWEEN = (ANY, "ab", "cd")

#: the five nullarity families
PATTERNS = {
    "bdl": Pattern("xabcdy", _CROWN + " cy dy", 5, {}, _NOBODY_BETWEEN),
    "k1": Pattern("xabcdyz", _CROWN + " cy dz", 5, {"y": FIXED, "z": FIXED}, _NOBODY_BETWEEN),
    "k2": Pattern("xabcdefyzw", _TRIPLE, 4, dict.fromkeys("yzw", FIXED), (SELF_BELOW, "abc", "")),
    "m1": Pattern("xabcdy", _CROWN + " xy", 5, {"y": FIXED}, _NOBODY_BETWEEN),
    "m2": Pattern("xab", "xa xb", 2, {"a": SELF_BELOW, "b": FIXED}, (FIXED, "a", "")),
}


def _pattern_env(struct, family: str) -> tuple[Pattern, dict[str, int]]:
    """The family's pattern and a bitmask of each kind of point."""
    if family not in PATTERNS:
        raise PreconditionError(f"unknown pattern family {family!r}")
    kinds = {ANY: (1 << len(struct.elements)) - 1}
    if isinstance(struct, InvPoset):
        kinds[FIXED] = struct.fixed_mask
        kinds[SELF_BELOW] = struct.self_below_mask
    elif family != "bdl":
        raise PreconditionError(f"family {family!r} needs an involutive poset")
    return PATTERNS[family], kinds


def _clause_holds(pat: Pattern, p: Poset, kinds: dict[str, int], at: dict[str, int]) -> bool:
    down, up = p.down_masks, p.up_masks
    kind, lows, highs = pat.clause
    between = kinds[kind]
    for t in lows:
        between &= up[at[t]]
    for t in highs:
        between &= down[at[t]]
    return not between


def find_null_pattern(struct, family: str) -> dict[str, str] | None:
    """First anchor tuple, in certificate order, satisfying the family's
    clauses; None when the exhaustive search comes up empty.

    The core anchors are placed in certificate order, each trying its
    values in element order, so matches come in lexicographic order.
    The negative clause is a mask on the last clause anchor placed: once
    the others sit, it may take no point whose up-set (a low anchor) or
    down-set (a high anchor) meets the points the clause forbids, so no
    match the clause rejects is ever built.

    Two prunes skip only what no match can use.  Under bdl, k1 and m1, c
    and d lie above a and b, so a join of a and b would sit between
    them: b takes no point that has a join with a.  Under k2, d,
    e and f lie below fixed points, so they and a, b, c are self-below
    (d <= y = i(y) <= i(d)) and a, b, c are pairwise bounded in the
    self-below part; if that part is 3-complete, a, b and c have a
    self-below join, which the clause forbids, so there is no match.
    """
    pat, kinds = _pattern_env(struct, family)
    if family == "k2" and is_three_complete(self_below_subposet(struct))[0]:
        return None
    down, up = struct.down_masks, struct.up_masks
    names = struct.elements
    anchors = pat.anchors
    pos = {t: k for k, t in enumerate(anchors)}
    covers = [(pos[lo], pos[hi]) for lo, hi in pat.covers.split()]
    lower = [[lo for lo, hi in covers if hi == k] for k in range(len(anchors))]
    # a point is allowed for an anchor when it has the anchor's kind and
    # every upper cover of the anchor has an allowed point above it;
    # upper anchors come later, so they settle first
    allowed = [kinds[pat.kinds.get(t, ANY)] for t in anchors]
    for lo, hi in sorted(covers, reverse=True):
        room = 0
        for j in bits(allowed[hi]):
            room |= down[j]
        allowed[lo] &= room
    kind, lows, highs = pat.clause
    last = max(pos[t] for t in lows + highs)
    other_lows = [pos[t] for t in lows if pos[t] != last]
    other_highs = [pos[t] for t in highs if pos[t] != last]
    # a low last anchor may sit below no forbidden point, a high one above none
    reach = down if anchors[last] in lows else up
    val = [0] * len(anchors)
    a, b = (pos[t] for t in lows[:2]) if pat.clause == _NOBODY_BETWEEN else (-1, -1)
    by_up = struct._mask_index[1]
    joinable: dict[int, int] = {}  # per value of a: b's values with a join with it

    def candidates(k: int) -> int:
        m = allowed[k]
        for j in lower[k]:
            m &= up[val[j]]
        if k == b:
            va = val[a]
            if va not in joinable:
                ua = up[va]
                joinable[va] = sum(
                    [1 << j for j in bits(allowed[b]) if (ua & up[j]) in by_up]
                )
            m &= ~joinable[va]
        if k == last:
            forbidden = kinds[kind]
            for j in other_lows:
                forbidden &= up[val[j]]
            for j in other_highs:
                forbidden &= down[val[j]]
            for s in bits(forbidden):
                m &= ~reach[s]
        return m

    left = [candidates(0)] + [0] * (pat.core - 1)  # untried values per core anchor
    k = 0
    while k >= 0:
        m = left[k]
        if not m:
            k -= 1
            continue
        low = m & -m
        left[k] = m ^ low
        val[k] = low.bit_length() - 1
        if k + 1 < pat.core:
            k += 1
            left[k] = candidates(k)
            continue
        for t in range(pat.core, len(anchors)):
            m = candidates(t)
            if not m:
                break
            val[t] = (m & -m).bit_length() - 1
        else:
            return {t: names[v] for t, v in zip(anchors, val)}
    return None


def verify_null_pattern(struct, family: str, anchors: dict[str, str]) -> bool:
    """Re-check the family's covers, anchor kinds and negative clause on
    the given anchors."""
    pat, kinds = _pattern_env(struct, family)
    if not all(t in anchors and anchors[t] in struct for t in pat.anchors):
        return False
    at = {t: struct.index[anchors[t]] for t in pat.anchors}
    return (
        all(struct.leq(anchors[lo], anchors[hi]) for lo, hi in pat.covers.split())
        and all(kinds[k] >> at[t] & 1 for t, k in pat.kinds.items())
        and _clause_holds(pat, struct, kinds, at)
    )


# ---------------------------------------------------------------------------
# generality preorder and the bounded oracle


def more_general(u1: Unifier, u2: Unifier) -> bool:
    """Whether u1 is at least as general as u2: u2 = u1 h for a morphism h.

    u2's image must lie in u1's, or no h exists.  When it does and u1 is
    an order embedding, h = u1^-1 u2 is the factor: it is monotone
    because u1 reflects the order, and commutes with the involutions
    because u1 is injective and commutes with them.  Only otherwise is h
    searched for, with each point of u2's domain allowed the fibre of
    u1 over its image.
    """
    if type(u1) is not type(u2):
        raise PreconditionError("unifiers live in different categories")
    # identity first: the dataclass __eq__ builds field tuples per call
    if u1.cod is not u2.cod and u1.cod != u2.cod:
        raise PreconditionError("unifiers target different instances")
    if not u2.image <= u1.image:
        return False
    if u1.is_embedding:
        return True
    fibres: dict[str, list[str]] = {}
    for t in u1.dom.elements:
        fibres.setdefault(u1(t), []).append(t)
    allowed = {x: fibres.get(u2(x), ()) for x in u2.dom.elements}
    mates = (u2.dom.mate, u1.dom.mate) if isinstance(u1, InvMorphism) else ()
    return next(search_maps(u2.dom, u1.dom, allowed, *mates), None) is not None


@lru_cache(maxsize=None)
def projective_domains_upto(variety: str, k: int) -> tuple:
    """Isomorphism-class representatives of projective-dual structures
    with at most k elements."""
    if variety == "bdl":
        return tuple(
            p
            for p in enumerate_posets_upto(k)
            if lattice_report(p).is_nonempty_lattice
        )
    out = []
    for iv in enumerate_invposets_upto(k):
        if not iv.elements:
            continue
        if variety == "kleene" and not iv.is_kleene:
            continue
        if is_projective_dual(iv, variety)[0]:
            out.append(iv)
    return tuple(out)


def enumerate_unifiers_bounded(q, variety: str, k: int) -> Iterator[Unifier]:
    """All unifiers into q whose domain has at most k elements.

    Domains range over the projective-dual corpus representatives; maps
    are enumerated exhaustively.  Guarded to k <= 5.
    """
    _require_variety(q, variety)
    if k > 5:
        raise SizeGuardError(f"unifier enumeration guard: bound {k} exceeds 5")
    if variety == "bdl":
        for dom in projective_domains_upto("bdl", k):
            yield from enumerate_monotone_maps(dom, q)
    else:
        for dom in projective_domains_upto(variety, k):
            yield from enumerate_inv_morphisms(dom, q)


# ---------------------------------------------------------------------------
# witness families


@dataclass(frozen=True)
class WitnessFamily:
    family: str
    n: int
    structure: Poset
    anchors: tuple[tuple[str, str], ...]

    @property
    def anchor_dict(self) -> dict[str, str]:
        return dict(self.anchors)


def witness_family(family: str, n: int) -> WitnessFamily:
    """The n-th witness structure T_n of the family with its unifier schema.

    Anchor names refer to the family's pattern tuple; elements without
    an anchor are the involution mirrors, closed during instantiation.
    An n past the family's cap raises SizeGuardError.
    """
    # per family the builder, the least n and the greatest: the largest
    # round n whose `witness` command takes at most about 2 s (2 vCPU
    # Xeon); one step past it took 3.0 s (bdl 200) to 4.2 s (m2 13)
    builders = {
        "bdl": (_witness_bdl, 1, 160),
        "k1": (_witness_k1, 2, 80),
        "k2": (_witness_k2, 2, 30),
        "m1": (_witness_m1, 1, 80),
        "m2": (_witness_m2, 1, 11),
    }
    if family not in builders:
        raise PreconditionError(f"unknown witness family {family!r}")
    builder, minimum, maximum = builders[family]
    if n < minimum:
        raise PreconditionError(f"family {family!r} needs n >= {minimum}")
    if family == "m2" and n % 2 == 0:
        raise PreconditionError("family 'm2' needs odd n")
    if n > maximum:
        raise SizeGuardError(f"witness guard: family {family!r} needs n <= {maximum}")
    return builder(n)


def _odd_pairs(n: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1) if (j + k) % 2 == 1]


def _witness_bdl(n: int) -> WitnessFamily:
    pairs = _odd_pairs(n)
    elems = ["bot", "top"] + [str(j) for j in range(1, n + 1)] + [
        f"{j}.{k}" for j, k in pairs
    ]
    covers = [("bot", str(j)) for j in range(1, n + 1)]
    for j, k in pairs:
        covers += [(str(j), f"{j}.{k}"), (str(k), f"{j}.{k}"), (f"{j}.{k}", "top")]
    if not pairs:
        # the cover list leaves the top isolated when no pair elements
        # exist; attach it above the generators so T_n stays a lattice
        covers += [(str(j), "top") for j in range(1, n + 1)]
    structure = validate_poset(elems, covers)
    anchors = {"bot": "x", "top": "y"}
    for j in range(1, n + 1):
        anchors[str(j)] = "a" if j % 2 == 1 else "b"
    for j, k in pairs:
        anchors[f"{j}.{k}"] = "c" if j % 2 == 1 else "d"
    return WitnessFamily("bdl", n, structure, tuple(sorted(anchors.items())))


def _witness_k1(n: int) -> WitnessFamily:
    pairs = _odd_pairs(n)
    lower = ["bot"] + [str(j) for j in range(1, n + 1)] + [f"{j}.{k}" for j, k in pairs]
    diamonds = [f"{j}#{k}" for j, k in pairs]
    elems = lower + diamonds + [f"~{v}" for v in lower]
    covers = [("bot", str(j)) for j in range(1, n + 1)]
    for j, k in pairs:
        covers += [
            (str(j), f"{j}.{k}"),
            (str(k), f"{j}.{k}"),
            (f"{j}.{k}", f"{j}#{k}"),
            (f"{j}#{k}", f"~{j}.{k}"),
        ]
    covers, inv = mirror_closure(covers, diamonds, lower)
    structure = validate_poset(elems, covers)
    iv = validate_involutive(structure, inv)
    anchors = {"bot": "x"}
    for j in range(1, n + 1):
        anchors[str(j)] = "a" if j % 2 == 1 else "b"
    for j, k in pairs:
        anchors[f"{j}.{k}"] = "c" if j % 2 == 1 else "d"
        anchors[f"{j}#{k}"] = "y" if j % 2 == 1 else "z"
    return WitnessFamily("k1", n, iv, tuple(sorted(anchors.items())))


def _witness_k2(n: int) -> WitnessFamily:
    rng = range(1, n + 1)
    opairs = [(j, k) for j in rng for k in rng if j != k]
    upairs = [(j, k) for j in rng for k in rng if j < k]
    lower = (
        ["bot"]
        + [str(j) for j in rng]
        + [f"{j}.{k}" for j, k in opairs]
        + [f"{j}o{j}.{k}" for j, k in opairs]
        + [f"{j}.{k}o{k}.{j}" for j, k in upairs]
    )
    diamonds = [f"{j}#{j}.{k}" for j, k in opairs] + [
        f"{j}.{k}#{k}.{j}" for j, k in upairs
    ]
    elems = lower + diamonds + [f"~{v}" for v in lower]
    covers = []
    for j in rng:
        covers.append(("bot", str(j)))
    for j, k in opairs:
        covers.append(("bot", f"{j}.{k}"))
        covers += [
            (str(j), f"{j}o{j}.{k}"),
            (f"{j}.{k}", f"{j}o{j}.{k}"),
            (f"{j}o{j}.{k}", f"{j}#{j}.{k}"),
        ]
    for j, k in upairs:
        covers += [
            (f"{j}.{k}", f"{j}.{k}o{k}.{j}"),
            (f"{k}.{j}", f"{j}.{k}o{k}.{j}"),
            (f"{j}.{k}o{k}.{j}", f"{j}.{k}#{k}.{j}"),
        ]
    covers, inv = mirror_closure(covers, diamonds, lower)
    structure = validate_poset(elems, covers)
    iv = validate_involutive(structure, inv)
    anchors = {"bot": "x"}
    for j in rng:
        anchors[str(j)] = "a"
    for j, k in opairs:
        anchors[f"{j}.{k}"] = "b" if j < k else "c"
        # the pair clauses force: above {a, b} sits d, above {a, c} sits
        # e, above {b, c} sits f, with their fixed points y, z, w
        anchors[f"{j}o{j}.{k}"] = "d" if j < k else "e"
        anchors[f"{j}#{j}.{k}"] = "y" if j < k else "z"
    for j, k in upairs:
        anchors[f"{j}.{k}o{k}.{j}"] = "f"
        anchors[f"{j}.{k}#{k}.{j}"] = "w"
    return WitnessFamily("k2", n, iv, tuple(sorted(anchors.items())))


def _witness_m1(n: int) -> WitnessFamily:
    pairs = _odd_pairs(n)
    lower = ["bot"] + [str(j) for j in range(1, n + 1)] + [f"{j}.{k}" for j, k in pairs]
    elems = lower + ["0"] + [f"~{v}" for v in lower]
    covers = [("bot", "0"), ("0", "~bot")]
    for j in range(1, n + 1):
        covers.append(("bot", str(j)))
    for j, k in pairs:
        covers += [
            ("bot", f"~{j}.{k}"),
            (f"{j}.{k}", "~bot"),
            (str(j), f"{j}.{k}"),
            (str(k), f"{j}.{k}"),
        ]
    paired = {j for j, k in pairs} | {k for j, k in pairs}
    for j in range(1, n + 1):
        # generators outside every pair element (n = 1 only) would dangle
        # below the top half; attach them so T_n stays a lattice
        if j not in paired:
            covers.append((str(j), "~bot"))
    covers, inv = mirror_closure(covers, ["0"], lower)
    structure = validate_poset(elems, covers)
    iv = validate_involutive(structure, inv)
    anchors = {"bot": "x", "0": "y"}
    for j in range(1, n + 1):
        anchors[str(j)] = "a" if j % 2 == 1 else "b"
    for j, k in pairs:
        anchors[f"{j}.{k}"] = "c" if j % 2 == 1 else "d"
    return WitnessFamily("m1", n, iv, tuple(sorted(anchors.items())))


def _witness_m2(n: int) -> WitnessFamily:
    vectors = ["".join(bits) for bits in cartesian("01", repeat=n)]
    vectors.sort(key=lambda v: (v.count("1"), v))
    elems = vectors + ["d"]
    inv = {"d": "d"}
    for v in vectors:
        inv[v] = "".join("1" if c == "0" else "0" for c in v)
    # v is covered by each vector with one of its 0s turned to 1
    covers = [(v, v[:k] + "1" + v[k + 1 :]) for v in vectors for k, c in enumerate(v) if c == "0"]
    covers += [("0" * n, "d"), ("d", "1" * n)]
    structure = validate_poset(elems, covers)
    iv = validate_involutive(structure, inv)
    anchors = {"0" * n: "x", "d": "b"}
    for v in vectors:
        weight = v.count("1")
        if 1 <= weight < n / 2:
            anchors[v] = "a"
    return WitnessFamily("m2", n, iv, tuple(sorted(anchors.items())))


def instantiate_witness(wf: WitnessFamily, pattern: dict[str, str], q) -> Unifier:
    """Close the anchor schema over a concrete pattern tuple and validate
    the resulting unifier into q."""
    anchors = wf.anchor_dict
    if isinstance(wf.structure, InvPoset):
        if not isinstance(q, InvPoset):
            raise PreconditionError("involutive witness needs an involutive instance")
        mapping: dict[str, str] = {}
        for t, name in anchors.items():
            mapping[t] = pattern[name]
        for t in wf.structure.elements:
            if t not in mapping:
                mate = wf.structure.i(t)
                if mate not in mapping:
                    raise ValidationError(f"schema leaves {t!r} unanchored")
                mapping[t] = q.i(mapping[mate])
        u = make_inv_morphism(wf.structure, q, mapping)
        u.check()
        return u
    if not isinstance(q, Poset) or isinstance(q, InvPoset):
        raise PreconditionError("bdl witness needs a bare poset instance")
    mapping = {t: pattern[anchors[t]] for t in wf.structure.elements}
    u = make_monotone_map(wf.structure, q, mapping)
    u.check()
    return u
