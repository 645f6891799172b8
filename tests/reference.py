"""Reference implementations the suite compares the library against.

`transitive_masks` with `poset_from_mask` and `permutation_involutions`
are the pair-subset and permutation walks the corpora were built with
before they grew by maximal points.  `reference_invposets_upto` is the
involutive corpus as it was built before it grew directly: every poset
class with each of its antitone involutions (`involutions_of`, the
self-inverse anti-automorphisms).  `le_pairs`, `from_pairs` and
`POSET_CLASS_COUNTS` are test-side views and constructors of order.

`ordered_brute_force` is the exhaustive oracle for every map search in
the library: it lists all maps in the order the library's search yields
them.  The Boolean-cube embedding and its retraction oracle serve the
bdl half of the projectivity agreement check.  `greedy_pruned_vectors`
is the plain form of the embedding's column pruning and
`reference_columns` its form by DIAMOND order lookup; `scan_columns`,
`materialised_embedding` and `materialised_retraction` are the
embedding and retraction on a built power of DIAMOND, checked against
its whole order, that the digit-vector forms replaced.  The null-pattern
finder and verifier state each nullarity family clause by clause;
`search_maps_find_null_pattern` is the pattern-table search that builds
every cover-respecting match before it tests the clause.  The
scanning joins and meets, the depth-first 3-completeness walk, the
all-pairs product and the triple-wise m3 check are the forms the order
kernels replaced, as are the closure by repeated set passes, the
cover extraction by set intersection and the pair-set Kleene core that
the up-mask kernel replaced.  `reference_classify` and
`reference_mu_set` decide finitarity by testing every interval, not
only those at minimal points, and name the nullary family the same way.
`reference_more_general` decides generality by searching for the factor
map every time, with no image or embedding test first.
`reference_lattice_report` is the lattice test over all pairs, the
comparable ones included, and `reference_dumps` the stdlib's indenting
encoder, which the library's hand-indenting writer replaced.
`string_fixed_points` and `string_self_below` define the involution's
fixed and self-below points on element names; `reference_check_m2`,
`reference_check_k2` and `reference_demorgan_core` are the m2 and k2
checks and the De Morgan core as they read the involution by name,
pair by pair, before they walked `InvPoset`'s index view.
`reference_restrict` and `reference_inv_restrict` are the substructure
selections by element name that the mask selections replaced, and
`reference_derive_tags` the variety tags read off full join and meet
tables.  `bare` forgets an involutive poset's involution, and `dual` and
`down_of` are the order-reversed poset and the down-set of a selection,
which no library routine needs.
"""

import functools
import itertools
import json

from morgan_unify import PreconditionError, SizeGuardError, ValidationError
from morgan_unify.algebra import TAG_BDL, TAG_BOOLEAN, TAG_DEMORGAN, TAG_KLEENE
from morgan_unify.documents import jsonable
from morgan_unify.involutive import (
    DIAMOND,
    InvMorphism,
    InvPoset,
    find_inv_isomorphism,
    kleene_part,
    make_inv_morphism,
    make_invposet,
    power,
)
from morgan_unify.order import (
    _iso_signature,
    MonotoneMap,
    LatticeReport,
    Poset,
    identity_map,
    lattice_report,
    bits,
    enumerate_posets_upto,
    find_isomorphism,
    make_monotone_map,
    order_violation,
    search_maps,
    validate_poset,
)
from morgan_unify.projectivity import REQUIRED, condition_report, is_projective_dual
from morgan_unify.unification import (
    FINITARY,
    NULLARY,
    UNITARY,
    MostGeneral,
    MuSet,
    NullPattern,
    UnifClassification,
    _clause_holds,
    _pattern_env,
    core_of,
    find_null_pattern,
    inclusion_unifier,
    interval_structure,
    is_solvable,
)


def reference_lattice_report(p: Poset) -> LatticeReport:
    """`lattice_report` walking every pair in canonical order."""
    if not p.elements:
        return LatticeReport(False, False, None)
    down, up = p.down_masks, p.up_masks
    by_down, by_up = p._mask_index
    witness = None
    is_meet = True
    for i, j in itertools.combinations(range(len(p.elements)), 2):
        no_meet = (down[i] & down[j]) not in by_down
        if no_meet or (up[i] & up[j]) not in by_up:
            if witness is None:
                witness = (p.elements[i], p.elements[j])
            if no_meet:
                is_meet = False
                break  # no later pair changes the report
    return LatticeReport(witness is None, is_meet, witness)


def reference_dumps(data) -> str:
    """`documents.dumps` by the stdlib's indenting encoder."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


#: counts of poset isomorphism classes by size (OEIS A000112)
POSET_CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045)


def le_pairs(p: Poset) -> frozenset[tuple[str, str]]:
    """The relation as (lower, upper) name pairs, reflexive pairs included."""
    elems = p.elements
    return frozenset(
        (elems[i], elems[j]) for i, u in enumerate(p.up_masks) for j in bits(u)
    )


def bare(p: Poset) -> Poset:
    """The order of p alone: an `InvPoset` without its involution."""
    return Poset(p.elements, p.up_masks)


def dual(p: Poset) -> Poset:
    """p with its order reversed."""
    return Poset(p.elements, p.down_masks)


def down_of(p: Poset, xs) -> frozenset[str]:
    """The points below some point of `xs`."""
    m = 0
    for x in xs:
        m |= p.down_masks[p.index[x]]
    return frozenset(p.members(m))


def from_pairs(elements, le) -> Poset:
    """Trusted construction from a reflexive-transitively closed
    relation; reflexive pairs may be left out.  Nothing is checked."""
    elems = tuple(elements)
    idx = {x: i for i, x in enumerate(elems)}
    up = [1 << i for i in range(len(elems))]
    for a, b in le:
        up[idx[a]] |= 1 << idx[b]
    return Poset(elems, tuple(up))


def transitive_masks(n: int):
    """Successor bitmasks of all transitive strict orders refining
    0<1<...<n-1, found by trying every subset of the pairs."""
    if n == 0:
        yield ()
        return
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    for mask in range(1 << m):
        succ = [0] * n
        for k in range(m):
            if mask >> k & 1:
                i, j = pairs[k]
                succ[i] |= 1 << j
        if all(not succ[j] & ~succ[i] for i in range(n) for j in bits(succ[i])):
            yield tuple(succ)


def poset_from_mask(succ: tuple[int, ...]) -> Poset:
    return Poset(
        tuple(str(i) for i in range(len(succ))),
        tuple(s | 1 << i for i, s in enumerate(succ)),
    )


def pair_subset_posets_upto(k: int):
    """One poset per isomorphism class of at most k points, harvested
    from the orders that `transitive_masks` yields."""
    for n in range(k + 1):
        buckets: dict[object, list[Poset]] = {}
        for succ in transitive_masks(n):
            cand = poset_from_mask(succ)
            known = buckets.setdefault(_iso_signature(cand), [])
            if not any(find_isomorphism(cand, r) is not None for r in known):
                known.append(cand)
                yield cand


def permutation_involutions(p: Poset):
    """All antitone involutions on p, found by trying every permutation."""
    n = len(p.elements)
    for perm in itertools.permutations(range(n)):
        if any(perm[perm[i]] != i for i in range(n)):
            continue
        if order_violation(p, perm, p.down_masks) is None:
            yield {p.elements[i]: p.elements[perm[i]] for i in range(n)}


def involutions_of(p: Poset):
    """All antitone involutions on p, in deterministic order.

    An injective monotone map from p to its dual, which has as many
    pairs, is an isomorphism: an anti-automorphism of p.  The
    involutions are the self-inverse ones.
    """
    for sigma in search_maps(p, dual(p), injective=True):
        if all(sigma[sigma[x]] == x for x in sigma):
            yield sigma


def reference_invposets_upto(k: int):
    """One involutive poset per class of at most k points: each poset
    class with each of its antitone involutions, deduplicated within the
    poset class."""
    for base in enumerate_posets_upto(k):
        reps: list[InvPoset] = []
        for sigma in involutions_of(base):
            cand = make_invposet(base, sigma)
            if not any(find_inv_isomorphism(cand, r) is not None for r in reps):
                reps.append(cand)
                yield cand


def ordered_brute_force(dom: Poset, cod: Poset, build, keep=None) -> list:
    """All maps dom -> cod whose morphism passes its own check().

    Maps are listed by values along `dom.linear_extension()`, each value
    in `cod.elements` order.  `build` turns a dict into the morphism;
    `keep`, when given, adds the caller's own constraints.
    """
    order = dom.linear_extension()
    out = []
    for values in itertools.product(cod.elements, repeat=len(order)):
        m = build(dict(zip(order, values)))
        try:
            m.check()
        except ValidationError:
            continue
        if keep is None or keep(m):
            out.append(m)
    return out


def cube_embedding(p: Poset) -> tuple[int, MonotoneMap]:
    """Order-reflecting embedding of a poset into the Boolean cube 2^n,
    one coordinate per principal downset (the bdl analog of the DIAMOND
    embedding)."""
    if not p.elements:
        raise PreconditionError("cannot embed the empty poset")
    n = len(p.elements)
    cube = _boolean_cube(n)
    vectors = {
        x: "".join("0" if p.leq(x, q) else "1" for q in p.elements)
        for x in p.elements
    }
    f = make_monotone_map(p, cube, vectors)
    f.check()
    for x in p.elements:
        for y in p.elements:
            if cube.leq(vectors[x], vectors[y]) and not p.leq(x, y):
                raise ValidationError(f"cube embedding not order-reflecting at ({x!r}, {y!r})")
    return n, f


def _boolean_cube(n: int) -> Poset:
    elems = []
    for k in range(1 << n):
        elems.append("".join("1" if k >> (n - 1 - i) & 1 else "0" for i in range(n)))
    elems.sort(key=lambda s: (s.count("1"), s))
    le = frozenset(
        (a, b)
        for a in elems
        for b in elems
        if all(ca <= cb for ca, cb in zip(a, b))
    )
    return from_pairs(elems, le)


def oracle_poset_retraction(p: Poset, embedding: tuple[int, MonotoneMap]) -> MonotoneMap | None:
    """Brute-force monotone retraction of the Boolean cube onto p's image."""
    n, e = embedding
    if n > 4:
        raise SizeGuardError(f"oracle guard: cube dimension {n} exceeds 4")
    cube = e.cod
    forced = {e(x): (x,) for x in p.elements}
    f = next(search_maps(cube, p, forced), None)
    return None if f is None else make_monotone_map(cube, p, f)


def _coordinate(p: InvPoset, down: frozenset[str], x: str) -> str:
    """DIAMOND coordinate of x for the principal downset `down`: in the
    downset and in its De Morgan complement -> "2", downset only -> "0",
    complement only -> "1", neither -> "3"."""
    in_x = x in down
    in_neg = p.i(x) not in down
    if in_x and in_neg:
        return "2"
    if in_x:
        return "0"
    if in_neg:
        return "1"
    return "3"


def reference_columns(p: InvPoset, prune: bool) -> list[dict[str, str]]:
    """The embedding's coordinate columns, each a map point -> digit,
    with each pair's separating columns found by looking every digit
    pair up in DIAMOND's order."""
    if not p.elements:
        raise PreconditionError("cannot embed the empty involutive poset")
    columns = []
    for q in p.elements:
        down = down_of(p, [q])
        columns.append({x: _coordinate(p, down, x) for x in p.elements})
    if prune:
        d_le = le_pairs(DIAMOND)
        separating = [
            sum(1 << k for k, c in enumerate(columns) if (c[x], c[y]) not in d_le)
            for x in p.elements
            for y in p.elements
            if not p.leq(x, y)
        ]
        kept = (1 << len(columns)) - 1
        for k in reversed(range(len(columns))):
            if kept.bit_count() == 1:
                break
            trial = kept & ~(1 << k)
            if all(s & trial for s in separating):
                kept = trial
        columns = [c for k, c in enumerate(columns) if kept >> k & 1]
    return columns


def greedy_pruned_vectors(p: InvPoset) -> dict[str, str]:
    """The pruned DIAMOND vectors of `canonical_embedding(p, prune=True)`,
    found by rebuilding every vector and rechecking every pair for each
    column trial."""
    columns = reference_columns(p, prune=False)

    def contract_ok(cols):
        vecs = {x: "".join(c[x] for c in cols) for x in p.elements}
        if len(set(vecs.values())) != len(p.elements):
            return False
        for x in p.elements:
            for y in p.elements:
                if not p.leq(x, y):
                    if all(DIAMOND.leq(c[x], c[y]) for c in cols):
                        return False
        return True

    kept = list(columns)
    i = len(kept) - 1
    while i >= 0 and len(kept) > 1:
        trial = kept[:i] + kept[i + 1 :]
        if contract_ok(trial):
            kept = trial
        i -= 1
    return {x: "".join(c[x] for c in kept) for x in p.elements}


def scan_columns(p: InvPoset, prune: bool) -> list[int]:
    """The embedding's kept columns, pruned by rescanning every pair's
    mask of separating columns for each column trial."""
    if not p.elements:
        raise PreconditionError("cannot embed the empty involutive poset")
    n = len(p.elements)
    if not prune:
        return list(range(n))
    up = p.up_masks
    inv_up = [up[p.index[p.i(x)]] for x in p.elements]
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


def materialised_check_embedding(
    p: InvPoset, target: InvPoset, vectors: dict[str, str]
) -> InvMorphism:
    """The embedding contract checked as a morphism into the built power
    `target`, then pair by pair for injectivity and order reflection."""
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
            if target.leq(vectors[x], vectors[y]) and not p.leq(x, y):
                raise ValidationError(
                    f"embedding not order-reflecting on ({x!r}, {y!r})",
                    witness=(x, y),
                )
    return e


def materialised_embedding(p: InvPoset, prune: bool = False) -> tuple[int, InvMorphism]:
    """`canonical_embedding` as a morphism into the built power of DIAMOND,
    with `scan_columns` and `materialised_check_embedding`."""
    columns = scan_columns(p, prune)
    if len(columns) > 6:
        raise SizeGuardError(
            f"embedding ambient D^{len(columns)} too large; prune or shrink the input"
        )
    n = len(columns)
    up = p.up_masks
    inv_up = [up[p.index[p.i(x)]] for x in p.elements]
    vectors = {
        x: "".join("1320"[2 * (up[k] >> q & 1) + (inv_up[k] >> q & 1)] for q in columns)
        for k, x in enumerate(p.elements)
    }
    return n, materialised_check_embedding(p, power(DIAMOND, n), vectors)


def materialised_retraction(
    p: InvPoset, variety: str, embedding: tuple[int, InvMorphism] | None = None
) -> InvMorphism:
    """`build_retraction` on the built power of DIAMOND (or its Kleene
    part), verified as a morphism against the power's whole order."""
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
    n, e = embedding if embedding is not None else materialised_embedding(p)
    if n > 6:
        raise SizeGuardError(
            f"retraction ambient D^{n} too large; pass a pruned embedding"
        )
    if len(e.cod) != 4**n:
        raise PreconditionError(
            f"embedding codomain has {len(e.cod)} points, not the {4**n} of D^{n}"
        )
    dom = kleene_part(e.cod) if variety == "kleene" else e.cod
    image = {e(x): x for x in p.elements}

    idx, image_mask = dom.index, dom.mask(image)

    def originals_below(v: str) -> list[str]:
        below = dom.down_masks[idx[v]] & image_mask
        return [image[w] for w in dom.members(below)]

    def originals_above(v: str) -> list[str]:
        above = dom.up_masks[idx[v]] & image_mask
        return [image[w] for w in dom.members(above)]

    def fixed_between(lo: str | None, hi: str | None) -> str:
        for y in p.fixed_points:
            if lo is not None and not p.leq(lo, y):
                continue
            if hi is not None and not p.leq(y, hi):
                continue
            return y
        raise ValidationError("no eligible fixed point; input not projective?")

    mapping: dict[str, str] = {}
    if variety == "demorgan":
        for v in dom.elements:
            if v in image:
                mapping[v] = image[v]
            elif dom.i(v) == v:
                lo = p.join(originals_below(v))
                hi = p.meet(originals_above(v))
                mapping[v] = fixed_between(lo, hi)
            else:
                m = next(c for c in v if c in "23")
                if m == "2":
                    t = p.join(originals_below(v))
                else:
                    t = p.meet(originals_above(v))
                assert t is not None
                mapping[v] = t
    else:
        lower = [v for v in dom.elements if all(c in "201" for c in v)]
        for v in lower:
            if v in image:
                mapping[v] = image[v]
                continue
            lo = p.join(originals_below(v))
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


#: each nullarity family's anchors in certificate order and its cover
#: pairs, stated independently of the library's pattern table
NULL_PATTERN_SHAPES = {
    "bdl": ("xabcdy", "xa xb ac ad bc bd cy dy"),
    "k1": ("xabcdyz", "xa xb ac ad bc bd cy dz"),
    "k2": ("xabcdefyzw", "xa xb xc ad ae bd bf ce cf dy ez fw"),
    "m1": ("xabcdy", "xa xb ac ad bc bd xy"),
    "m2": ("xab", "xa xb"),
}


def reference_find_null_pattern(struct, family: str) -> dict[str, str] | None:
    """First anchor tuple, in lexicographic order of its values along the
    certificate order, that `reference_verify_null_pattern` accepts.
    Tuples are pruned only by the covers."""
    order, covers = NULL_PATTERN_SHAPES[family]
    lowers = [[order.index(lo) for lo, hi in covers.split() if hi == t] for t in order]

    def extend(values: list[str]) -> dict[str, str] | None:
        k = len(values)
        if k == len(order):
            anchors = dict(zip(order, values))
            return anchors if reference_verify_null_pattern(struct, family, anchors) else None
        for v in struct.elements:
            if all(struct.leq(values[j], v) for j in lowers[k]):
                found = extend(values + [v])
                if found is not None:
                    return found
        return None

    return extend([])


def search_maps_find_null_pattern(struct, family: str) -> dict[str, str] | None:
    """The pattern table's search as `search_maps` runs it: every
    cover-respecting match of the core anchors is built, and the negative
    clause is tested on each full match."""
    pat, kinds = _pattern_env(struct, family)
    down, up = struct.down_masks, struct.up_masks
    names = struct.elements
    allowed: dict[str, int] = {}
    for t in reversed(pat.anchors):
        m = kinds[pat.kinds.get(t, "any")]
        for lo, hi in pat.covers.split():
            if lo == t:
                room = 0
                for j in bits(allowed[hi]):
                    room |= down[j]
                m &= room
        allowed[t] = m
    core = pat.anchors[: pat.core]
    shape = validate_poset(core, [c for c in pat.covers.split() if c[1] in core])
    options = {t: [names[i] for i in bits(allowed[t])] for t in shape.elements}
    tops = [
        (t, [lo for lo, hi in pat.covers.split() if hi == t])
        for t in pat.anchors[pat.core :]
    ]
    for match in search_maps(shape, struct, options):
        at = {t: struct.index[v] for t, v in match.items()}
        if not _clause_holds(pat, struct, kinds, at):
            continue
        for t, lows in tops:
            m = allowed[t]
            for lo in lows:
                m &= up[at[lo]]
            if not m:
                break
            at[t] = (m & -m).bit_length() - 1
        else:
            return {t: names[at[t]] for t in pat.anchors}
    return None


def reference_verify_null_pattern(struct, family: str, anchors: dict[str, str]) -> bool:
    """Every clause of the family, written out family by family, with the
    nonexistence clause checked by a scan over all points."""
    base, inv = struct, struct.inv if isinstance(struct, InvPoset) else None
    g = anchors.__getitem__
    le = base.leq
    if family == "bdl":
        return (
            all(le(g("x"), v) for v in (g("a"), g("b")))
            and all(le(u, v) for u in (g("a"), g("b")) for v in (g("c"), g("d")))
            and all(le(v, g("y")) for v in (g("c"), g("d")))
            and _nobody_between(base, g("a"), g("b"), g("c"), g("d"))
        )
    assert inv is not None
    if family == "k1":
        return (
            all(le(g("x"), v) for v in (g("a"), g("b")))
            and all(le(u, v) for u in (g("a"), g("b")) for v in (g("c"), g("d")))
            and le(g("c"), g("y")) and inv[g("y")] == g("y")
            and le(g("d"), g("z")) and inv[g("z")] == g("z")
            and _nobody_between(base, g("a"), g("b"), g("c"), g("d"))
        )
    if family == "k2":
        return (
            all(le(g("x"), v) for v in (g("a"), g("b"), g("c")))
            and le(g("a"), g("d")) and le(g("a"), g("e"))
            and le(g("b"), g("d")) and le(g("b"), g("f"))
            and le(g("c"), g("e")) and le(g("c"), g("f"))
            and le(g("d"), g("y")) and inv[g("y")] == g("y")
            and le(g("e"), g("z")) and inv[g("z")] == g("z")
            and le(g("f"), g("w")) and inv[g("w")] == g("w")
            and not any(
                le(g("a"), h) and le(g("b"), h) and le(g("c"), h) and le(h, inv[h])
                for h in base.elements
            )
        )
    if family == "m1":
        return (
            all(le(g("x"), v) for v in (g("a"), g("b")))
            and all(le(u, v) for u in (g("a"), g("b")) for v in (g("c"), g("d")))
            and le(g("x"), g("y")) and inv[g("y")] == g("y")
            and _nobody_between(base, g("a"), g("b"), g("c"), g("d"))
        )
    if family == "m2":
        return (
            le(g("x"), g("a")) and le(g("x"), g("b"))
            and le(g("a"), inv[g("a")])
            and inv[g("b")] == g("b")
            and not any(le(g("a"), c) and inv[c] == c for c in base.elements)
        )
    raise PreconditionError(f"unknown pattern family {family!r}")


def _nobody_between(base: Poset, a: str, b: str, c: str, d: str) -> bool:
    mids = base.up_of([a]) & base.up_of([b]) & down_of(base, [c]) & down_of(base, [d])
    return not mids


def upper_bounds(p: Poset, xs) -> frozenset[str]:
    out = frozenset(p.elements)
    for x in xs:
        out &= p.up_of([x])
    return out


def lower_bounds(p: Poset, xs) -> frozenset[str]:
    out = frozenset(p.elements)
    for x in xs:
        out &= down_of(p, [x])
    return out


def scan_join(p: Poset, xs) -> str | None:
    """Least upper bound by a scan over the elements for a bound below
    every upper bound."""
    ub = upper_bounds(p, xs)
    for u in p.elements:
        if u in ub and ub <= p.up_of([u]):
            return u
    return None


def scan_meet(p: Poset, xs) -> str | None:
    lb = lower_bounds(p, xs)
    for v in p.elements:
        if v in lb and lb <= down_of(p, [v]):
            return v
    return None


def dfs_is_three_complete(p: Poset) -> tuple[bool, frozenset[str] | None]:
    """Depth-first walk over every pairwise-bounded subset in canonical
    order; the first subset of two or more points without a join is the
    counterexample."""
    elems = p.elements
    n = len(elems)

    def bounded(x: str, y: str) -> bool:
        return bool(upper_bounds(p, (x, y)))

    def walk(current: list[str], start: int) -> frozenset[str] | None:
        if len(current) >= 2 and scan_join(p, current) is None:
            return frozenset(current)
        for i in range(start, n):
            z = elems[i]
            if all(bounded(x, z) for x in current):
                current.append(z)
                bad = walk(current, i + 1)
                if bad is not None:
                    return bad
                current.pop()
        return None

    for i in range(n):
        bad = walk([elems[i]], i + 1)
        if bad is not None:
            return False, bad
    return True, None


def pairwise_product(p: InvPoset, q: InvPoset, sep: str = "") -> InvPoset:
    """The FPM product with its order found by testing every pair of
    labels against both factors."""
    names = {}
    for a in p.elements:
        for b in q.elements:
            name = a + sep + b
            if name in names:
                raise ValidationError(f"ambiguous product label {name!r}", name)
            names[name] = (a, b)
    le = frozenset(
        (x, y)
        for x, (a, b) in names.items()
        for y, (c, d) in names.items()
        if p.leq(a, c) and q.leq(b, d)
    )
    inv = {x: p.i(a) + sep + q.i(b) for x, (a, b) in names.items()}
    return make_invposet(from_pairs(names, le), inv)


def pairwise_power(p: InvPoset, n: int) -> InvPoset:
    """power(p, n) for n >= 1 built with `pairwise_product`."""
    return functools.reduce(lambda acc, _: pairwise_product(acc, p), range(n - 1), p)


def string_fixed_points(p: InvPoset) -> tuple[str, ...]:
    return tuple([x for x in p.elements if p.i(x) == x])


def string_self_below(p: InvPoset) -> tuple[str, ...]:
    return tuple([x for x in p.elements if p.leq(x, p.i(x))])


def reference_check_m2(p: InvPoset) -> tuple[bool, str | None]:
    fixed = string_fixed_points(p)
    for x in string_self_below(p):
        if not any(p.leq(x, z) for z in fixed):
            return False, x
    return True, None


def reference_check_k2(p: InvPoset) -> tuple[bool, tuple[str, str] | None]:
    self_below = string_self_below(p)
    for x, y in itertools.combinations_with_replacement(self_below, 2):
        if not (p.leq(x, p.i(y)) and p.leq(y, p.i(x))):
            continue
        if not any(p.leq(x, z) and p.leq(y, z) for z in self_below):
            return False, (x, y)
    return True, None


def reference_demorgan_core(q: InvPoset) -> InvPoset:
    fixed = string_fixed_points(q)
    carrier = [
        x
        for x in q.elements
        if any(
            q.leq(y, x) and q.leq(y, q.i(x)) and any(q.leq(y, z) for z in fixed)
            for y in q.elements
        )
    ]
    return q.restrict(q.mask(carrier))


def m3_fast_path(p: InvPoset) -> bool:
    """First-order triple-wise form of 3-completeness; valid on lattices.

    Quantifies over triples whose pairwise joins sit below their own
    involutes and asks the same of the triple join.
    """
    if not lattice_report(p).is_nonempty_lattice:
        raise PreconditionError("triple-wise check requires a nonempty lattice")

    def good(*xs: str) -> bool:
        j = scan_join(p, xs)
        assert j is not None
        return p.leq(j, p.i(j))

    for x, y, z in itertools.combinations_with_replacement(p.elements, 3):
        if good(x, y) and good(x, z) and good(y, z) and not good(x, y, z):
            return False
    return True


def reference_validate_poset(elements, pairs, mode: str = "covers"):
    """`validate_poset` by repeated set passes: the elements and the
    reflexive-transitively closed relation as name pairs, or the same
    ValidationError.  Witnesses are taken in element order, z by name."""
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

    succ: dict[str, set[str]] = {x: {x} for x in elems}
    for a, b in pair_list:
        succ[a].add(b)

    if mode == "covers":
        changed = True
        while changed:
            changed = False
            for x in elems:
                extra = set()
                for y in succ[x]:
                    extra |= succ[y]
                if not extra <= succ[x]:
                    succ[x] |= extra
                    changed = True
    else:
        for x in elems:
            gaps = [y for y in succ[x] if not succ[y] <= succ[x]]
            if gaps:
                y = min(gaps, key=position.__getitem__)
                z = min(succ[y] - succ[x])
                raise ValidationError(
                    f"transitivity gap: {x!r} <= {y!r} <= {z!r} "
                    f"but ({x!r}, {z!r}) missing",
                    witness=(x, y, z),
                )

    for x in elems:
        cycle = [y for y in succ[x] if x != y and x in succ[y]]
        if cycle:
            y = min(cycle, key=position.__getitem__)
            raise ValidationError(
                f"antisymmetry violation: cycle through {x!r} and {y!r}",
                witness=(x, y),
            )
    return elems, frozenset((x, y) for x in elems for y in succ[x])


def reference_covers(elements, le) -> tuple[tuple[str, str], ...]:
    """Cover pairs of a closed relation, by index of the lower point, then
    of the upper: a < b with nothing in up(a) & down(b) but a and b."""
    index = {x: i for i, x in enumerate(elements)}
    up = {x: frozenset(b for a, b in le if a == x) for x in elements}
    down = {x: frozenset(a for a, b in le if b == x) for x in elements}
    out = []
    for a in elements:
        for b in elements:
            if a == b or (a, b) not in le:
                continue
            if not up[a] & down[b] - {a, b}:
                out.append((a, b))
    out.sort(key=lambda p: (index[p[0]], index[p[1]]))
    return tuple(out)


def reference_kleene_core_order(q: InvPoset):
    """The carrier and order of `kleene_core(q)` from its three clauses,
    pair by pair: x <= y is kept when both sit below their involutes,
    both sit above them, or a fixed point lies between."""
    fixed = set(q.fixed_points)
    carrier = tuple(
        x for x in q.elements if any(q.leq(x, z) or q.leq(z, x) for z in fixed)
    )

    def keep(x: str, y: str) -> bool:
        if q.leq(x, q.i(x)) and q.leq(y, q.i(y)):
            return True
        if q.leq(q.i(x), x) and q.leq(q.i(y), y):
            return True
        return any(q.leq(x, z) and q.leq(z, y) for z in fixed)

    le = frozenset(
        (x, y) for x in carrier for y in carrier if q.leq(x, y) and keep(x, y)
    )
    return carrier, le


def bdl_intervals_ok(q: Poset) -> bool:
    """Every interval [x, y] with x <= y is a lattice."""
    for x in q.elements:
        for y in q.elements:
            if q.leq(x, y):
                piece = q.restrict(q.mask(q.interval(x, y)))
                if not lattice_report(piece).is_nonempty_lattice:
                    return False
    return True


def _interval_ok(p: InvPoset, x: str, variety: str) -> bool:
    rep = condition_report(interval_structure(p, x))
    if variety == "kleene":
        return rep.k1 and rep.m3
    return rep.m1 and rep.m2 and rep.m3


def all_intervals_ok(core: InvPoset, variety: str) -> bool:
    """Every interval [x, i(x)] with x <= i(x) is projective."""
    return all(_interval_ok(core, x, variety) for x in string_self_below(core))


def nullary_family(core: InvPoset, variety: str) -> str:
    """The first condition some interval [x, i(x)] fails, over all of
    them: k1, else k2; m1, else m2, else m3."""
    xs = string_self_below(core)
    if variety == "kleene":
        if any(not condition_report(interval_structure(core, x)).k1 for x in xs):
            return "k1"
        return "k2"
    if any(not condition_report(interval_structure(core, x)).m1 for x in xs):
        return "m1"
    if any(not condition_report(interval_structure(core, x)).m2 for x in xs):
        return "m2"
    return "m3"


def _finitary(q, variety: str, core) -> bool:
    if variety == "bdl":
        return not lattice_report(q).is_nonempty_lattice and bdl_intervals_ok(q)
    rep = condition_report(core)
    head = (not rep.k1) if variety == "kleene" else (not rep.m1)
    return head and all_intervals_ok(core, variety)


def reference_mu_set(q, variety: str) -> list:
    """The interval mu-set, with its precondition re-decided over every
    interval; an unsolvable instance gives []."""
    if variety == "bdl":
        if not _finitary(q, variety, None):
            raise PreconditionError("mu_set asked of a non-finitary instance")
        return [
            make_monotone_map(piece, q, {z: z for z in piece.elements})
            for x in q.minimals()
            for y in q.maximals()
            if q.leq(x, y)
            for piece in [q.restrict(q.mask(q.interval(x, y)))]
        ]
    core = core_of(q, variety)
    if not _finitary(q, variety, core):
        raise PreconditionError("mu_set asked of a non-finitary instance")
    return [inclusion_unifier(interval_structure(core, x), q) for x in core.minimals()]


def reference_classify(q, variety: str) -> UnifClassification:
    """`classify` with finitarity decided over every interval and the
    nullary family named by `nullary_family`."""
    if not is_solvable(q, variety):
        return UnifClassification(False, None, None, None)
    if variety == "bdl":
        core = None
        if lattice_report(q).is_nonempty_lattice:
            return UnifClassification(True, UNITARY, MostGeneral(identity_map(q)), None)
        family = "bdl"
    else:
        core = core_of(q, variety)
        rep = condition_report(core)
        unit = rep.k1 and rep.m3 if variety == "kleene" else rep.m1 and rep.m2 and rep.m3
        if unit:
            return UnifClassification(
                True, UNITARY, MostGeneral(inclusion_unifier(core, q)), core
            )
        family = nullary_family(core, variety)
    if _finitary(q, variety, core):
        return UnifClassification(
            True, FINITARY, MuSet(tuple(reference_mu_set(q, variety))), core
        )
    anchors = find_null_pattern(q if core is None else core, family)
    assert anchors is not None
    return UnifClassification(
        True, NULLARY, NullPattern(family, tuple(sorted(anchors.items()))), core
    )


def reference_more_general(u1, u2) -> bool:
    """Whether u2 factors through u1, decided by searching for the factor
    alone: each point of u2's domain may go to the fibre of u1 over its
    image, and any map `search_maps` finds is a factor."""
    if type(u1) is not type(u2):
        raise PreconditionError("unifiers live in different categories")
    if u1.cod != u2.cod:
        raise PreconditionError("unifiers target different instances")
    fibres: dict[str, list[str]] = {}
    for t in u1.dom.elements:
        fibres.setdefault(u1(t), []).append(t)
    allowed = {x: fibres.get(u2(x), ()) for x in u2.dom.elements}
    mates = (u2.dom.mate, u1.dom.mate) if isinstance(u1, InvMorphism) else ()
    maps = search_maps(u2.dom, u1.dom, allowed, *mates)
    return next(maps, None) is not None


def reference_restrict(p: Poset, keep) -> Poset:
    """`Poset.restrict` on a collection of element names."""
    keep_set = set(keep)
    idx = p.index
    unknown = [x for x in keep_set if x not in idx]
    if unknown:
        raise ValidationError(f"unknown element {min(unknown)!r}", witness=min(unknown))
    kept = sorted(idx[x] for x in keep_set)
    new_bit = {1 << i: 1 << k for k, i in enumerate(kept)}
    keep_mask = sum(new_bit)
    up = []
    for i in kept:
        m = p.up_masks[i] & keep_mask
        u = 0
        while m:
            low = m & -m
            m ^= low
            u |= new_bit[low]
        up.append(u)
    return Poset(tuple([p.elements[i] for i in kept]), tuple(up))


def reference_inv_restrict(p: InvPoset, keep) -> InvPoset:
    """`InvPoset.restrict` on a collection of element names; the witness
    of a selection not closed under the involution is whichever point
    the set iteration meets first."""
    keep_set = set(keep)
    for x in keep_set:
        if p.inv[x] not in keep_set:
            raise ValidationError(f"selection not involution-closed at {x!r}", witness=x)
    return make_invposet(reference_restrict(p, keep_set), p.inv)


def reference_derive_tags(carrier: Poset, neg) -> frozenset[str]:
    """`algebra._derive_tags` with full join and meet tables, each pair
    of lows and highs tested."""
    tags = {TAG_BDL}
    if neg is not None:
        tags.add(TAG_DEMORGAN)
        elems = carrier.elements
        join = {p: carrier.join(p) for p in itertools.product(elems, repeat=2)}
        meet = {p: carrier.meet(p) for p in itertools.product(elems, repeat=2)}
        if all(
            carrier.leq(meet[a, neg[a]], join[b, neg[b]]) for a in elems for b in elems
        ):
            tags.add(TAG_KLEENE)
            bottom = carrier.bottom()
            if all(meet[a, neg[a]] == bottom for a in elems):
                tags.add(TAG_BOOLEAN)
    return frozenset(tags)
