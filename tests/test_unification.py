import random
import time
from functools import partial

import pytest
from hypothesis import given, settings

from morgan_unify import (
    DIAMOND,
    InvPoset,
    MostGeneral,
    PreconditionError,
    SizeGuardError,
    classify,
    demorgan_core,
    enumerate_invposets_upto,
    enumerate_posets_upto,
    enumerate_unifiers_bounded,
    find_null_pattern,
    is_projective_dual,
    is_solvable,
    kleene_core,
    kleene_part,
    more_general,
    mu_set,
    power,
    product,
    validate_involutive,
    validate_monotone_map,
    validate_poset,
    verify_null_pattern,
)
from morgan_unify.cli import ANCHOR_ORDER
from morgan_unify.duality import demorgan_dual
from morgan_unify.gallery import (
    k1_pattern_instance,
    k2_pattern_instance,
    m1_pattern_instance,
    m2_pattern_instance,
    m3_pattern_instance,
)
from morgan_unify.involutive import make_inv_morphism
from morgan_unify.order import make_monotone_map
from morgan_unify.order import is_three_complete
from morgan_unify.projectivity import self_below_subposet
from morgan_unify.unification import FINITARY, PATTERNS, core_of, witness_family

from morphisms import is_identity
from reference import (
    NULL_PATTERN_SHAPES,
    bare,
    le_pairs,
    ordered_brute_force,
    reference_classify,
    reference_find_null_pattern,
    reference_kleene_core_order,
    reference_more_general,
    reference_mu_set,
    reference_verify_null_pattern,
    search_maps_find_null_pattern,
)
from strategies import chain, grid, invposets, reversed_chain


class TestSolvability:
    def test_empty_poset_unsolvable(self):
        assert not is_solvable(validate_poset([], []), "bdl")

    def test_antichain_swap_unsolvable(self, antichain_swap):
        assert not is_solvable(antichain_swap, "demorgan")

    def test_diamond_solvable_kleene(self, diamond):
        assert is_solvable(diamond, "kleene")

    def test_variety_mismatch(self, antichain_swap, crown, diamond):
        with pytest.raises(PreconditionError):
            is_solvable(antichain_swap, "kleene")
        with pytest.raises(PreconditionError):
            is_solvable(crown, "demorgan")
        # an InvPoset is a Poset, but bdl instances carry no involution
        unifiers = lambda q, v: list(enumerate_unifiers_bounded(q, v, 1))
        for decide in (is_solvable, classify, mu_set, unifiers):
            with pytest.raises(PreconditionError, match="bdl instances are bare posets"):
                decide(diamond, "bdl")


class TestKleeneCore:
    def test_no_fixed_points_gives_empty_core(self):
        q = validate_involutive(
            validate_poset(["a", "b"], [("a", "b")]), {"a": "b", "b": "a"}
        )
        assert len(kleene_core(q)) == 0

    def test_separating_chain_unchanged(self):
        q = validate_involutive(
            validate_poset(["x", "z", "y"], [("x", "z"), ("z", "y")]),
            {"x": "y", "y": "x", "z": "z"},
        )
        core = kleene_core(q)
        assert core.elements == q.elements
        assert le_pairs(core) == le_pairs(q)

    def test_unseparated_pair_dropped(self):
        # x below y with x on the lower side, y on the upper side, and no
        # fixed point in between: the pair (and its mirror) must go
        q = validate_involutive(
            validate_poset(
                ["x", "z", "~x", "~y", "w", "y"],
                [("x", "z"), ("z", "~x"), ("x", "y"), ("~y", "~x"), ("~y", "w"), ("w", "y")],
            ),
            {"x": "~x", "~x": "x", "y": "~y", "~y": "y", "z": "z", "w": "w"},
        )
        core = kleene_core(q)
        assert set(core.elements) == set(q.elements)
        assert q.leq("x", "y") and not core.leq("x", "y")
        assert le_pairs(q) - le_pairs(core) == {("x", "y"), ("~y", "~x")}

    def test_matches_pairwise_reference(self, invposets_upto_6, pattern_instances):
        kleene = [iv for iv in invposets_upto_6 if iv.is_kleene]
        kleene += [pattern_instances["k1"], pattern_instances["k2"]]
        for iv in kleene:
            core = kleene_core(iv)
            assert (core.elements, le_pairs(core)) == reference_kleene_core_order(iv)

    @given(invposets(max_size=4))
    @settings(max_examples=40)
    def test_core_is_kleene_with_m2_and_k2(self, iv):
        if not iv.is_kleene:
            return
        core = kleene_core(iv)
        if not core.elements:
            return
        from morgan_unify import condition_report

        rep = condition_report(core)
        assert core.is_kleene and rep.m2 and rep.k2


class TestDeMorganCore:
    def test_fixed_point_is_its_own_core(self, point):
        assert demorgan_core(point).elements == ("p",)

    def test_swap_antichain_core_empty(self, antichain_swap):
        assert len(demorgan_core(antichain_swap)) == 0

    def test_witnessed_membership(self):
        q = validate_involutive(
            validate_poset(
                ["y", "z", "a", "ia", "~y"],
                [("y", "z"), ("y", "a"), ("y", "ia"), ("z", "~y"), ("a", "~y"), ("ia", "~y")],
            ),
            {"y": "~y", "~y": "y", "z": "z", "a": "ia", "ia": "a"},
        )
        assert set(demorgan_core(q).elements) == set(q.elements)


class TestClassify:
    def test_diamond_poset_bdl_unitary(self, diamond):
        result = classify(bare(diamond), "bdl")
        assert result.utype == "unitary"
        assert isinstance(result.certificate, MostGeneral)
        assert is_identity(result.certificate.unifier)

    def test_antichain_bdl_finitary(self):
        result = classify(validate_poset(["a", "b"], []), "bdl")
        assert result.utype == "finitary"
        domains = [m.dom.elements for m in result.certificate.members]
        assert domains == [("a",), ("b",)]

    def test_crown_bdl_nullary(self, crown):
        result = classify(crown, "bdl")
        assert result.utype == "nullary"
        cert = result.certificate
        assert cert.family == "bdl"
        assert cert.as_dict == {k: k for k in "xabcdy"}

    def test_unsolvable(self):
        result = classify(validate_poset([], []), "bdl")
        assert result == type(result)(False, None, None, None)

    def test_diamond_demorgan_kleene_unitary(self, diamond):
        for variety in ("demorgan", "kleene"):
            result = classify(diamond, variety)
            assert result.utype == "unitary"
            assert is_projective_dual(result.certificate.unifier.dom, variety)[0]

    def test_two_fixed_points_kleene_finitary(self):
        q = validate_involutive(validate_poset(["z1", "z2"], []), {"z1": "z1", "z2": "z2"})
        result = classify(q, "kleene")
        assert result.utype == "finitary"
        assert [m.dom.elements for m in result.certificate.members] == [("z1",), ("z2",)]

    def test_bounded_two_fixed_points_unitary(self):
        q = validate_involutive(
            validate_poset(
                ["x", "z1", "z2", "~x"],
                [("x", "z1"), ("x", "z2"), ("z1", "~x"), ("z2", "~x")],
            ),
            {"x": "~x", "~x": "x", "z1": "z1", "z2": "z2"},
        )
        assert classify(q, "kleene").utype == "unitary"

    def test_pattern_instances(self, pattern_instances):
        expected = {
            "k1": ("kleene", "k1"),
            "k2": ("kleene", "k2"),
            "m1": ("demorgan", "m1"),
            "m2": ("demorgan", "m2"),
        }
        for name, (variety, family) in expected.items():
            result = classify(pattern_instances[name], variety)
            assert result.utype == "nullary"
            assert result.certificate.family == family
            assert verify_null_pattern(
                result.core, family, result.certificate.as_dict
            )

    def test_k2_shape_as_demorgan_lands_on_m1(self, pattern_instances):
        # the interval already fails the lattice condition, so the De
        # Morgan case analysis certifies with the m1 family
        result = classify(pattern_instances["k2"], "demorgan")
        assert result.utype == "nullary"
        assert result.certificate.family == "m1"

    def test_smallest_nullary_instance_is_the_m2_shape(self, pattern_instances):
        # sweeping all involutive posets with at most five points finds a
        # single nullary class, and it is the m2 configuration
        from morgan_unify import enumerate_invposets_upto, find_inv_isomorphism

        nullary = []
        for iv in enumerate_invposets_upto(5):
            if is_solvable(iv, "demorgan"):
                if classify(iv, "demorgan").utype == "nullary":
                    nullary.append(iv)
            if iv.is_kleene and is_solvable(iv, "kleene"):
                assert classify(iv, "kleene").utype != "nullary"
        assert len(nullary) == 1
        assert find_inv_isomorphism(nullary[0], pattern_instances["m2"]) is not None


def layered_forest(widths, seed):
    """Each point above the lowest layer covers one point of the layer
    below, drawn from a seeded generator."""
    rng = random.Random(seed)
    layers = [[f"l{k}_{i}" for i in range(w)] for k, w in enumerate(widths)]
    covers = [(rng.choice(low), y) for low, high in zip(layers, layers[1:]) for y in high]
    return validate_poset([x for layer in layers for x in layer], covers)


def beside(first, second):
    """The disjoint union, first's points listed first."""
    union = validate_poset(
        [x for b in (first, second) for x in b.elements],
        [c for b in (first, second) for c in b.covers()],
    )
    if isinstance(first, InvPoset):
        return validate_involutive(union, {**first.inv, **second.inv})
    return union


class TestClassifyAgainstReference:
    def test_matches_all_intervals_reference(
        self, posets_upto_6, invposets_upto_6, crown, fm1, point, pattern_instances
    ):
        # the reference tests every interval, not only those at minimal
        # points, and names the nullary family over all of them; each
        # pattern also sits beside a point, whose interval comes first
        patterns = [*pattern_instances.values(), m3_pattern_instance()]
        involutive = [
            *invposets_upto_6,
            *patterns,
            *(beside(point, iv) for iv in patterns),
            demorgan_dual(fm1),
        ]
        forest = layered_forest((5,) * 12, seed=1401)
        assert len(forest) == 60 and len(forest.minimals()) > 1
        bdl = [*posets_upto_6, crown, beside(bare(point), crown), forest, beside(forest, crown)]
        cases = [(p, "bdl") for p in bdl]
        cases += [(bare(iv), "bdl") for iv in involutive]
        cases += [(iv, "demorgan") for iv in involutive]
        cases += [(iv, "kleene") for iv in involutive if iv.is_kleene]
        seen = set()
        for q, variety in cases:
            want = reference_classify(q, variety)
            assert classify(q, variety) == want
            seen.add((variety, want.utype))
            if want.utype == "finitary":
                assert mu_set(q, variety) == reference_mu_set(q, variety)
            else:
                with pytest.raises(PreconditionError):
                    mu_set(q, variety)
        types = (None, "unitary", "finitary", "nullary")
        assert seen == {(v, t) for v in ("bdl", "demorgan", "kleene") for t in types}
        assert len(classify(forest, "bdl").certificate.members) > 1


    def test_matches_all_intervals_reference_at_seven_points(self, posets_upto_7):
        sevens = [p for p in posets_upto_7 if len(p.elements) == 7]
        assert len(sevens) == 2045
        for p in sevens:
            assert classify(p, "bdl") == reference_classify(p, "bdl")

    def test_matches_all_intervals_reference_up_to_eight_points(self, invposets_upto_8):
        assert len(invposets_upto_8) == 1055
        seen = set()
        for iv in invposets_upto_8:
            for variety in ("demorgan", "kleene") if iv.is_kleene else ("demorgan",):
                want = reference_classify(iv, variety)
                assert classify(iv, variety) == want
                seen.add((variety, want.utype))
        types = (None, "unitary", "finitary", "nullary")
        assert seen == {(v, t) for v in ("demorgan", "kleene") for t in types}


class TestMuSet:
    def test_antichain_two_singletons(self):
        members = mu_set(validate_poset(["a", "b"], []), "bdl")
        assert [m.dom.elements for m in members] == [("a",), ("b",)]

    def test_two_two_chains(self):
        q = validate_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        members = mu_set(q, "bdl")
        assert [m.dom.elements for m in members] == [("a", "b"), ("c", "d")]
        for m in members:
            m.check()

    def test_rejected_on_unitary_instance(self, diamond):
        with pytest.raises(PreconditionError):
            mu_set(bare(diamond), "bdl")
        with pytest.raises(PreconditionError):
            mu_set(diamond, "kleene")

    def test_rejected_on_unsolvable_instance(self, antichain_swap):
        with pytest.raises(PreconditionError):
            mu_set(validate_poset([], []), "bdl")
        with pytest.raises(PreconditionError):
            mu_set(antichain_swap, "demorgan")

    def test_members_pairwise_incomparable(self):
        q = validate_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        members = mu_set(q, "bdl")
        for i, u in enumerate(members):
            for j, v in enumerate(members):
                if i != j:
                    assert not more_general(u, v)

    def test_domains_are_projective(self):
        q = validate_involutive(validate_poset(["z1", "z2"], []), {"z1": "z1", "z2": "z2"})
        for m in mu_set(q, "kleene"):
            assert is_projective_dual(m.dom, "kleene")[0]


class TestNullPatterns:
    def test_crown_bdl_tuple(self, crown):
        anchors = find_null_pattern(crown, "bdl")
        assert anchors == {k: k for k in "xabcdy"}
        assert verify_null_pattern(crown, "bdl", anchors)

    def test_diamond_has_no_m1_pattern(self, diamond):
        assert find_null_pattern(diamond, "m1") is None

    def test_k1_tuple_on_its_instance(self, pattern_instances):
        anchors = find_null_pattern(pattern_instances["k1"], "k1")
        assert anchors == {k: k for k in "xabcdyz"}

    def test_m3_tuple_findable_directly(self, pattern_instances):
        # the m3 configuration is the k2 triple, found under the k2 name;
        # m3 names no family, as no lattice fails it
        q = pattern_instances["k2"]
        anchors = find_null_pattern(q, "k2")
        assert anchors is not None and verify_null_pattern(q, "k2", anchors)
        with pytest.raises(PreconditionError):
            find_null_pattern(q, "m3")

    def test_negative_clause_rechecked(self, crown):
        bad = {k: k for k in "xabcdy"}
        bad["c"] = "y"  # an element now sits between a, b and y, d
        assert not verify_null_pattern(crown, "bdl", bad)


def small_pattern_cases():
    """bdl on every poset, the involutive families on every involutive
    poset, of at most five points."""
    for p in enumerate_posets_upto(5):
        yield p, "bdl"
    for iv in enumerate_invposets_upto(5):
        for family in ("k1", "k2", "m1", "m2"):
            yield iv, family


class TestPatternTableAgainstReference:
    def test_certificate_order_is_the_reference_order(self):
        assert ANCHOR_ORDER == {
            family: tuple(order) for family, (order, _) in NULL_PATTERN_SHAPES.items()
        }

    def test_find_matches_reference_small(self):
        for struct, family in small_pattern_cases():
            assert find_null_pattern(struct, family) == reference_find_null_pattern(
                struct, family
            ), (struct, family)

    @pytest.mark.parametrize(
        "name, family",
        [
            ("crown", "bdl"),
            ("k1", "k1"),
            ("k1", "m1"),
            ("k2", "m1"),
            ("m1", "k1"),
            ("m1", "m1"),
            ("m2", "m2"),
            ("m2", "k2"),
        ],
    )
    def test_find_matches_reference_on_gallery(self, name, family, crown, pattern_instances):
        struct = crown if name == "crown" else pattern_instances[name]
        assert find_null_pattern(struct, family) == reference_find_null_pattern(struct, family)

    def test_verify_matches_reference_on_moved_anchors(self, crown, pattern_instances):
        found = [
            (struct, family, anchors)
            for struct, family in small_pattern_cases()
            if (anchors := find_null_pattern(struct, family)) is not None
        ]
        for struct in [crown, *pattern_instances.values()]:
            families = NULL_PATTERN_SHAPES if isinstance(struct, InvPoset) else ("bdl",)
            for family in families:
                anchors = find_null_pattern(struct, family)
                if anchors is not None:
                    found.append((struct, family, anchors))
        assert {family for _, family, _ in found} == set(NULL_PATTERN_SHAPES)
        for struct, family, anchors in found:
            assert verify_null_pattern(struct, family, anchors)
            assert reference_verify_null_pattern(struct, family, anchors)
            for name in anchors:
                for v in struct.elements:
                    moved = {**anchors, name: v}
                    assert verify_null_pattern(
                        struct, family, moved
                    ) == reference_verify_null_pattern(struct, family, moved), (
                        family,
                        moved,
                    )

    def test_verify_rejects_a_missing_anchor(self, crown):
        anchors = find_null_pattern(crown, "bdl")
        for name in anchors:
            partial_anchors = {t: v for t, v in anchors.items() if t != name}
            assert not verify_null_pattern(crown, "bdl", partial_anchors)


def bounded_layered(widths, seed):
    """Each point covers one or two points of the layer below; the two
    first points of layers 1 and 2 form a bowtie; a bottom below the
    lowest layer and a top above every point without an upper cover
    close the poset, so its one interval is no lattice."""
    rng = random.Random(seed)
    layers = [[f"l{k}_{i}" for i in range(w)] for k, w in enumerate(widths)]
    covers = {("bot", x) for x in layers[0]}
    for low, high in zip(layers, layers[1:]):
        for y in high:
            covers |= {(x, y) for x in rng.sample(low, rng.randint(1, 2))}
    covers |= {(x, y) for x in layers[1][:2] for y in layers[2][:2]}
    names = ["bot"] + [x for layer in layers for x in layer]
    covers |= {(x, "top") for x in names} - {(x, "top") for x, _ in covers}
    names.append("top")
    return validate_poset(names, sorted(covers))


class TestPatternSearchAgainstSearchMaps:
    """The clause-narrowed search returns what the search that builds
    every match and then tests the clause returns."""

    def test_certificate_order_extends_the_covers(self):
        for pat in PATTERNS.values():
            core = pat.anchors[: pat.core]
            shape = validate_poset(core, [c for c in pat.covers.split() if c[1] in core])
            assert "".join(shape.linear_extension()) == core
            assert all(pat.anchors.index(lo) < pat.anchors.index(hi) for lo, hi in pat.covers.split())
            assert set(pat.clause[1] + pat.clause[2]) <= set(core)

    def test_small_corpora_and_gallery(
        self, posets_upto_6, invposets_upto_6, crown, pattern_instances
    ):
        found = set()
        for p in [*posets_upto_6, crown]:
            anchors = find_null_pattern(p, "bdl")
            assert anchors == search_maps_find_null_pattern(p, "bdl"), p
            found.add(("bdl", anchors is not None))
        for iv in [*invposets_upto_6, *pattern_instances.values()]:
            for family in ("k1", "k2", "m1", "m2"):
                anchors = find_null_pattern(iv, family)
                assert anchors == search_maps_find_null_pattern(iv, family), (iv, family)
                found.add((family, anchors is not None))
        assert {f for f, hit in found if hit} == set(PATTERNS)

    @pytest.mark.parametrize(
        "widths, seed, size",
        [((4,) * 8, 1401, 34), ((5,) * 10, 7, 52), ((6,) * 12, 11, 74), ((6,) * 16, 1401, 98)],
    )
    def test_bounded_layered_posets(self, widths, seed, size):
        q = bounded_layered(widths, seed)
        assert len(q) == size
        anchors = find_null_pattern(q, "bdl")
        assert anchors is not None
        assert anchors == search_maps_find_null_pattern(q, "bdl")

    def test_forests_and_lattices_hold_no_pattern(self):
        for q in (
            layered_forest((5,) * 12, seed=1401),
            layered_forest((3,) * 12, seed=11),
            chain(12),
            grid(5, 5),
            grid(3, 8),
        ):
            assert find_null_pattern(q, "bdl") is None
            assert search_maps_find_null_pattern(q, "bdl") is None

    def test_m1_on_product_cores(self, pattern_instances):
        structures = [
            product(pattern_instances["k1"], reversed_chain(3), sep="."),
            product(pattern_instances["m1"], DIAMOND, sep="."),
            kleene_part(power(DIAMOND, 3)),
        ]
        for q in structures:
            core = core_of(q, "demorgan")
            anchors = find_null_pattern(core, "m1")
            assert anchors is not None
            assert anchors == search_maps_find_null_pattern(core, "m1")

    def test_bounded_layered_against_clause_by_clause_reference(self):
        q = bounded_layered((4,) * 8, seed=1401)
        assert find_null_pattern(q, "bdl") == reference_find_null_pattern(q, "bdl")


def larger_involutive_inputs():
    """D^n and K(D^n) for n <= 3, the witness structures T_n, the products
    D^a x C_k of the dual-decide catalog with their Kleene parts, and the
    gallery instances with their products with C_3 and D."""
    out = []
    for n in (1, 2, 3):
        out += [power(DIAMOND, n), kleene_part(power(DIAMOND, n))]
    for family, ns in (("k1", (2, 3)), ("k2", (2, 3)), ("m1", (1, 2, 3)), ("m2", (3, 5))):
        out += [witness_family(family, n).structure for n in ns]
    for a, ks in ((1, (3, 5, 9, 12)), (2, (2, 3, 4, 5)), (3, (2,))):
        for k in ks:
            p = product(power(DIAMOND, a), reversed_chain(k), sep=".")
            out += [p, kleene_part(p)]
    for make in (k1_pattern_instance, k2_pattern_instance, m1_pattern_instance, m2_pattern_instance):
        g = make()
        out += [g, product(g, reversed_chain(3), sep="."), product(g, DIAMOND, sep=".")]
    return out


class TestPatternSearchPrunes:
    """The join prune (bdl, k1, m1) and the 3-completeness pre-check (k2)
    skip only searches that hold no match."""

    def test_pattern_free_inputs_end_fast(self):
        d4 = power(DIAMOND, 4)
        for q, family in [
            (chain(200), "bdl"),
            (grid(12, 14), "bdl"),
            (d4, "k2"),
            (kleene_part(d4), "k2"),
        ]:
            start = time.perf_counter()
            assert find_null_pattern(q, family) is None
            # each takes at most 0.05 s on one x86-64 core; without the
            # prunes chain(200) walks some 67 million tuples
            assert time.perf_counter() - start < 1.0, (len(q), family)

    def test_pairs_bounded_without_a_join_stay_candidates(self, crown, pattern_instances):
        # in every match a and b lie below c and d but have no join, so a
        # prune of every bounded pair would lose these matches
        for q, family in [
            (crown, "bdl"),
            (pattern_instances["k1"], "k1"),
            (pattern_instances["m1"], "m1"),
            (bounded_layered((4,) * 8, seed=1401), "bdl"),
        ]:
            anchors = find_null_pattern(q, family)
            assert anchors is not None
            assert anchors == search_maps_find_null_pattern(q, family)
            assert q.join([anchors["a"], anchors["b"]]) is None

    def test_join_prune_on_witness_structures(self):
        cases = [(witness_family("bdl", n).structure, "bdl") for n in (1, 2, 3, 4)]
        for family in ("k1", "m1"):
            for n in (2, 3):
                t = witness_family(family, n).structure
                cases += [(t, "k1"), (t, "m1"), (t, "bdl")]
        for q, family in cases:
            assert find_null_pattern(q, family) == search_maps_find_null_pattern(q, family)

    def test_three_complete_precheck_against_search_maps(self):
        found = set()
        for q in larger_involutive_inputs():
            cores = [core_of(q, "demorgan")] + ([core_of(q, "kleene")] if q.is_kleene else [])
            for core in cores:
                anchors = find_null_pattern(core, "k2")
                assert anchors == search_maps_find_null_pattern(core, "k2"), core
                if anchors is not None:
                    # the pre-check's premise fails wherever a match exists
                    assert not is_three_complete(self_below_subposet(core))[0]
                found.add(anchors is not None)
        assert found == {True, False}

    def test_three_complete_precheck_on_d4(self):
        d4 = power(DIAMOND, 4)
        assert is_three_complete(self_below_subposet(d4))[0]
        assert find_null_pattern(d4, "k2") is None
        assert search_maps_find_null_pattern(d4, "k2") is None


class TestMoreGeneral:
    def test_reflexive(self, crown):
        u = validate_monotone_map(validate_poset(["p"], []), crown, {"p": "x"})
        assert more_general(u, u)

    def test_interval_inclusion_dominates(self):
        q = validate_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        first, second = mu_set(q, "bdl")
        u = validate_monotone_map(validate_poset(["p"], []), q, {"p": "a"})
        assert more_general(first, u)
        assert not more_general(u, first)
        assert not more_general(second, u)

    def test_agrees_with_brute_force_small(self):
        # unifiers with at most 3-point domains into every instance of at
        # most 3 points; u1 is as general as u2 when some h with u1 h = u2
        # turns up in the exhaustive listing
        cases = [(q, "bdl") for q in enumerate_posets_upto(3) if q.elements]
        for q in enumerate_invposets_upto(3):
            if q.elements:
                cases.append((q, "demorgan"))
                if q.is_kleene:
                    cases.append((q, "kleene"))
        for q, variety in cases:
            unifiers = list(enumerate_unifiers_bounded(q, variety, 3))
            for u1 in unifiers:
                for u2 in unifiers:
                    dom2, dom1 = u2.dom, u1.dom
                    make = make_monotone_map if variety == "bdl" else make_inv_morphism
                    build = partial(make, dom2, dom1)
                    factors = ordered_brute_force(
                        dom2,
                        dom1,
                        build,
                        keep=lambda h: all(u1(h(x)) == u2(x) for x in dom2.elements),
                    )
                    assert more_general(u1, u2) == bool(factors)

    def test_agrees_with_the_factor_search_on_finitary_instances(self):
        # every finitary instance of at most 5 points: each mu-set member
        # against every unifier of bound 4 and every member, and every
        # pair of unifiers of bound 3 (91,516 pairs)
        cases = [(q, "bdl") for q in enumerate_posets_upto(5)]
        for q in enumerate_invposets_upto(5):
            cases.append((q, "demorgan"))
            if q.is_kleene:
                cases.append((q, "kleene"))
        pairs = 0
        for q, variety in cases:
            result = classify(q, variety)
            if result.utype != FINITARY:
                continue
            members = result.certificate.members
            unifiers = list(enumerate_unifiers_bounded(q, variety, 4))
            small = [u for u in unifiers if len(u.dom) <= 3]
            for u1, u2 in [
                *((m, u) for m in members for u in unifiers + list(members)),
                *((u, v) for u in small for v in small),
            ]:
                assert more_general(u1, u2) == reference_more_general(u1, u2), (u1, u2)
                pairs += 1
        assert pairs == 91516

    def test_injective_without_reflecting_the_order_is_not_enough(self):
        # u1 sends a 2-antichain onto a 2-chain: injective and monotone,
        # but p <= q fails although u1(p) <= u1(q), so the 2-chain's
        # inclusion does not factor through it
        two = validate_poset(["a", "b"], [("a", "b")])
        u1 = validate_monotone_map(validate_poset(["p", "q"], []), two, {"p": "a", "q": "b"})
        u2 = validate_monotone_map(two, two, {"a": "a", "b": "b"})
        assert u1.image == u2.image and not u1.is_embedding
        assert not more_general(u1, u2)
        assert more_general(u2, u1)

        # the same with involutions: two swapped pairs onto a 4-chain
        c4 = reversed_chain(4)
        pairs = validate_involutive(
            validate_poset(["p", "~p", "q", "~q"], []),
            {"p": "~p", "~p": "p", "q": "~q", "~q": "q"},
        )
        v1 = make_inv_morphism(pairs, c4, {"p": "c0", "~p": "c3", "q": "c1", "~q": "c2"})
        v1.check()
        v2 = make_inv_morphism(c4, c4, {x: x for x in c4.elements})
        assert v1.image == v2.image and not v1.is_embedding
        assert not more_general(v1, v2)
        assert more_general(v2, v1)

    def test_embeddings(self, crown):
        sub = crown.restrict(crown.mask(["x", "a", "c"]))
        assert make_monotone_map(sub, crown, {z: z for z in sub.elements}).is_embedding
        point = validate_poset(["p"], [])
        assert make_monotone_map(point, crown, {"p": "a"}).is_embedding
        two = validate_poset(["p", "q"], [])
        assert not make_monotone_map(two, crown, {"p": "a", "q": "a"}).is_embedding
        assert not make_monotone_map(two, crown, {"p": "a", "q": "c"}).is_embedding
        assert make_monotone_map(two, crown, {"p": "a", "q": "b"}).is_embedding

    def test_codomain_mismatch(self, crown, diamond):
        u = validate_monotone_map(validate_poset(["p"], []), crown, {"p": "x"})
        v = validate_monotone_map(validate_poset(["p"], []), diamond, {"p": "2"})
        with pytest.raises(PreconditionError):
            more_general(u, v)

    def test_equal_codomains_need_not_be_one_object(self, crown):
        # the identity test on codomains is only a fast path: an equal
        # copy is the same instance, an unequal one still raises
        copy = validate_poset(crown.elements, crown.covers())
        assert copy == crown and copy is not crown
        point = validate_poset(["p"], [])
        u = validate_monotone_map(point, crown, {"p": "x"})
        v = validate_monotone_map(point, copy, {"p": "x"})
        assert more_general(u, v) and more_general(v, u)

        c4, c4_copy = reversed_chain(4), reversed_chain(4)
        assert c4 == c4_copy and c4 is not c4_copy
        whole = make_inv_morphism(c4, c4, {x: x for x in c4.elements})
        middle = c4_copy.restrict(c4_copy.mask(["c1", "c2"]))
        part = make_inv_morphism(middle, c4_copy, {"c1": "c1", "c2": "c2"})
        assert more_general(whole, part) and not more_general(part, whole)

        swap = validate_involutive(validate_poset(["a", "b"], []), {"a": "b", "b": "a"})
        fixed = validate_involutive(swap, {"a": "a", "b": "b"})
        assert swap != fixed
        w1 = make_inv_morphism(swap, swap, {"a": "a", "b": "b"})
        w2 = make_inv_morphism(fixed, fixed, {"a": "a", "b": "b"})
        with pytest.raises(PreconditionError):
            more_general(w1, w2)


class TestBoundedEnumeration:
    def test_point_instance_kleene(self, point):
        assert sum(1 for _ in enumerate_unifiers_bounded(point, "kleene", 1)) == 1

    def test_antichain_bdl_bound_one(self):
        q = validate_poset(["a", "b"], [])
        assert sum(1 for _ in enumerate_unifiers_bounded(q, "bdl", 1)) == 2

    def test_diamond_demorgan_contains_self_morphisms(self, diamond):
        from morgan_unify import enumerate_inv_morphisms, find_inv_isomorphism

        unifiers = list(enumerate_unifiers_bounded(diamond, "demorgan", 4))
        d_shaped = [
            u
            for u in unifiers
            if len(u.dom) == 4 and find_inv_isomorphism(u.dom, diamond) is not None
        ]
        self_morphisms = list(enumerate_inv_morphisms(diamond, diamond))
        assert len(d_shaped) == len(self_morphisms) == 6

    def test_guard(self, diamond):
        with pytest.raises(SizeGuardError):
            next(enumerate_unifiers_bounded(diamond, "demorgan", 6))


class TestCoreLemmaExecutableHalf:
    def test_unifiers_land_in_core(self, pattern_instances):
        for name, variety in [("k1", "kleene"), ("m1", "demorgan"), ("m2", "demorgan")]:
            q = pattern_instances[name]
            core = core_of(q, variety)
            core_elems = frozenset(core.elements)
            for u in enumerate_unifiers_bounded(q, variety, 3):
                assert u.image <= core_elems
                into_core = make_inv_morphism(u.dom, core, u.as_dict)
                into_core.check()
