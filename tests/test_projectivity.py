import re

import pytest
from hypothesis import given, settings

from morgan_unify import (
    DIAMOND,
    PreconditionError,
    SizeGuardError,
    ValidationError,
    build_retraction,
    canonical_embedding,
    condition_report,
    enumerate_invposets_upto,
    is_projective_dual,
    kleene_part,
    lattice_report,
    oracle_retraction_search,
    power,
    product,
    validate_inv_morphism,
    validate_involutive,
    validate_poset,
)
from morgan_unify import demorgan_core, demorgan_dual, projectivity, witness_family
from morgan_unify.gallery import (
    free_demorgan_one,
    k1_pattern_instance,
    k2_pattern_instance,
    m1_pattern_instance,
    m2_pattern_instance,
    m3_pattern_instance,
)
from morgan_unify.involutive import make_inv_morphism
from morgan_unify.projectivity import (
    DIGITS,
    _check_embedding,
    _columns,
    _cover_steps,
    _vector_names,
    check_k2,
    check_m2,
)

from morphisms import is_identity
from reference import (
    cube_embedding,
    greedy_pruned_vectors,
    m3_fast_path,
    materialised_check_embedding,
    materialised_embedding,
    materialised_retraction,
    oracle_poset_retraction,
    reference_check_k2,
    reference_check_m2,
    reference_columns,
    reference_demorgan_core,
    scan_columns,
    string_fixed_points,
    string_self_below,
)
from strategies import invposets, reversed_chain


def three_chain():
    return validate_involutive(
        validate_poset(["2", "0", "3"], [("2", "0"), ("0", "3")]),
        {"2": "3", "3": "2", "0": "0"},
    )


class TestConditionReport:
    def test_diamond_all_hold(self, diamond):
        rep = condition_report(diamond)
        assert (rep.m1, rep.m2, rep.m3, rep.k1, rep.k2) == (True,) * 5
        assert rep.witnesses == {}

    def test_antichain_swap(self, antichain_swap):
        rep = condition_report(antichain_swap)
        assert not rep.m1 and rep.witnesses["m1"] == ("a", "b")
        assert rep.m2  # vacuous: nothing sits below its involute
        assert rep.m3
        assert not rep.k1  # the self-below part is empty
        # with the four-inequality reading of the bound condition no pair
        # qualifies here, so the common-upper-bound condition is vacuous
        assert rep.k2

    def test_inner_chain_of_diamond(self):
        rep = condition_report(three_chain())
        assert (rep.m1, rep.m2, rep.m3, rep.k1, rep.k2) == (True,) * 5


class TestIndexInvolution:
    def test_index_view_and_its_readers_match_the_string_forms(self, invposets_upto_6):
        gallery = [
            DIAMOND,
            demorgan_dual(free_demorgan_one()),
            k1_pattern_instance(),
            k2_pattern_instance(),
            m1_pattern_instance(),
            m2_pattern_instance(),
        ]
        powers = [power(DIAMOND, n) for n in (0, 1, 2, 3)]
        families = (("k1", (2, 3)), ("k2", (2, 3)), ("m1", (1, 2, 3)), ("m2", (1, 3, 5)))
        witnesses = [witness_family(f, n).structure for f, ns in families for n in ns]
        inputs = [*invposets_upto_6, *gallery, *powers, *map(kleene_part, powers), *witnesses]
        verdicts = set()
        for p in inputs:
            index = p.index
            assert p.mate == tuple(index[p.i(x)] for x in p.elements)
            assert p.fixed_mask == p.mask(string_fixed_points(p))
            assert p.self_below_mask == p.mask(string_self_below(p))
            m2, k2 = check_m2(p), check_k2(p)
            assert m2 == reference_check_m2(p)
            assert k2 == reference_check_k2(p)
            assert demorgan_core(p) == reference_demorgan_core(p)
            verdicts.add((m2[0], k2[0]))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


class TestDeciders:
    def test_diamond_demorgan(self, diamond):
        assert is_projective_dual(diamond, "demorgan")[0]

    def test_antichain_swap_fails_via_m1(self, antichain_swap):
        ok, rep = is_projective_dual(antichain_swap, "demorgan")
        assert not ok and not rep.m1

    def test_free_kleene_dual_projective(self):
        assert is_projective_dual(kleene_part(power(DIAMOND, 2)), "kleene")[0]

    def test_kleene_on_non_kleene_rejected(self, antichain_swap):
        with pytest.raises(PreconditionError):
            is_projective_dual(antichain_swap, "kleene")

    def test_bdl_on_poset(self, crown):
        assert not is_projective_dual(crown, "bdl")[0]
        assert is_projective_dual(DIAMOND, "bdl")[0]


class TestCanonicalEmbedding:
    def test_fixed_point(self, point):
        n, e = canonical_embedding(point)
        assert n == 1 and e == {"p": "0"}

    def test_diamond_prunes_to_identity_coordinate(self, diamond):
        n, e = canonical_embedding(diamond, prune=True)
        assert n == 1
        assert e == {x: x for x in diamond.elements}

    def test_antichain_swap_coordinates(self, antichain_swap):
        n, e = canonical_embedding(antichain_swap, prune=True)
        assert n == 2
        assert e == {"a": "23", "b": "32"}

    def test_pruning_matches_greedy_reference(self, invposets_upto_6, pattern_instances):
        def vectors(iv, columns):
            return {x: "".join(c[x] for c in columns) for x in iv.elements}

        for iv in enumerate_invposets_upto(4):
            if iv.elements:
                n, e = canonical_embedding(iv, prune=True)
                assert e == greedy_pruned_vectors(iv)
                assert n == len(e[iv.elements[0]])
                unpruned = canonical_embedding(iv)[1]
                assert unpruned == vectors(iv, reference_columns(iv, prune=False))
        # the separating masks against the columns found by DIAMOND lookup
        for iv in [*invposets_upto_6, *pattern_instances.values()]:
            if iv.elements:
                _, e = canonical_embedding(iv, prune=True)
                assert e == vectors(iv, reference_columns(iv, prune=True))

    def test_unpruned_dimension_is_carrier_size(self, diamond):
        n, _ = canonical_embedding(diamond)
        assert n == 4

    def test_empty_rejected(self):
        empty = validate_involutive(validate_poset([], []), {})
        with pytest.raises(PreconditionError):
            canonical_embedding(empty)

    @given(invposets(max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_contract_holds(self, iv):
        n, vectors = canonical_embedding(iv, prune=True)
        ambient = power(DIAMOND, n)
        validate_inv_morphism(iv, ambient, vectors)
        assert len(set(vectors.values())) == len(iv.elements)
        for x in iv.elements:
            for y in iv.elements:
                if ambient.leq(vectors[x], vectors[y]):
                    assert iv.leq(x, y)


class TestBuildRetraction:
    def test_chain_in_diamond(self):
        ch = three_chain()
        vectors = {"2": "2", "0": "0", "3": "3"}
        validate_inv_morphism(ch, DIAMOND, vectors)
        r = build_retraction(ch, "demorgan", embedding=(1, vectors))
        validate_inv_morphism(DIAMOND, ch, r)
        assert r == {"0": "0", "1": "0", "2": "2", "3": "3"}

    def test_diamond_identity(self, diamond):
        ident = {x: x for x in diamond.elements}
        r = build_retraction(diamond, "demorgan", embedding=(1, ident))
        assert is_identity(validate_inv_morphism(DIAMOND, diamond, r))

    def test_point_constant(self, point):
        vectors = {"p": "0"}
        validate_inv_morphism(point, DIAMOND, vectors)
        r = build_retraction(point, "demorgan", embedding=(1, vectors))
        validate_inv_morphism(DIAMOND, point, r)
        assert set(r.values()) == {"p"}

    def test_kleene_variant(self):
        ch = three_chain()
        vectors = {"2": "2", "0": "0", "3": "3"}
        validate_inv_morphism(ch, DIAMOND, vectors)
        r = build_retraction(ch, "kleene", embedding=(1, vectors))
        validate_inv_morphism(kleene_part(DIAMOND), ch, r)
        assert r == {"0": "0", "1": "0", "2": "2", "3": "3"}

    def test_rejects_non_projective(self, antichain_swap):
        with pytest.raises(PreconditionError):
            build_retraction(antichain_swap, "demorgan")

    def test_rejects_embedding_of_wrong_dimension(self, diamond):
        n, e = canonical_embedding(diamond, prune=True)
        with pytest.raises(PreconditionError, match="codomain"):
            build_retraction(diamond, "demorgan", embedding=(n + 1, e))

    def test_retraction_composes_to_identity(self, diamond):
        n, vectors = canonical_embedding(diamond)
        r = build_retraction(diamond, "demorgan", embedding=(n, vectors))
        validate_inv_morphism(power(DIAMOND, n), diamond, r)
        for x in diamond.elements:
            assert r[vectors[x]] == x


def varieties(iv):
    return ("demorgan", "kleene") if iv.is_kleene else ("demorgan",)


def agree_with_materialised(iv, prune):
    """Require the digit-vector embedding and retractions to equal the
    materialised ones, in the same order, or both to refuse alike;
    returns the number of retractions compared."""
    try:
        ref = materialised_embedding(iv, prune)
    except SizeGuardError as exc:
        with pytest.raises(SizeGuardError, match=re.escape(str(exc))):
            canonical_embedding(iv, prune)
        return 0
    assert _columns(iv, prune) == scan_columns(iv, prune)
    n, vectors = canonical_embedding(iv, prune)
    assert (n, list(vectors.items())) == (ref[0], list(ref[1].mapping))
    built = 0
    for variety in varieties(iv):
        try:
            want = materialised_retraction(iv, variety, ref)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                build_retraction(iv, variety, (n, vectors))
            continue
        got = build_retraction(iv, variety, (n, vectors))
        assert list(got.items()) == list(want.mapping)
        built += 1
    return built


def one_digit_changes(iv, vectors):
    """Every embedding that moves one point's vector by one digit, alone
    and with its involute's vector moved to match."""
    for x, v in vectors.items():
        for c in range(len(v)):
            for d in DIGITS:
                if d != v[c]:
                    w = v[:c] + d + v[c + 1 :]
                    yield {**vectors, x: w}
                    if iv.i(x) != x:
                        swapped = w.translate(str.maketrans("23", "32"))
                        yield {**vectors, x: w, iv.i(x): swapped}


class TestDigitVectorsAgainstMaterialised:
    """The embedding and retraction on digit vectors against the old
    routines on a built power of DIAMOND."""

    def test_small_corpus(self, invposets_upto_6):
        built = 0
        for iv in invposets_upto_6:
            if 1 <= len(iv.elements) <= 5:
                for prune in (False, True):
                    built += agree_with_materialised(iv, prune)
        assert built == 22  # 11 retractions, pruned and unpruned

    def test_gallery(self, pattern_instances):
        for iv in [*pattern_instances.values(), m3_pattern_instance()]:
            for prune in (False, True):
                agree_with_materialised(iv, prune)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("D^1xC_9", lambda: product(DIAMOND, reversed_chain(9), sep=".")),
            (
                "K(D^1xC_5)",
                lambda: kleene_part(product(DIAMOND, reversed_chain(5), sep=".")),
            ),
            ("D^2xC_3", lambda: product(power(DIAMOND, 2), reversed_chain(3), sep=".")),
            ("K(D^3)", lambda: kleene_part(power(DIAMOND, 3))),
        ],
    )
    def test_catalog_products(self, name, build):
        assert agree_with_materialised(build(), prune=True) >= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cover_steps_generate_the_ambient_orders(self, n):
        names = _vector_names(n)
        ambient = power(DIAMOND, n)
        assert names == list(ambient.elements)
        steps = [(names[k], names[j]) for k, j in _cover_steps(n)]
        assert sorted(steps) == sorted(ambient.covers())
        assert validate_poset(names, steps).up_masks == ambient.up_masks
        # inside the Kleene part, the steps between its own vectors
        k_part = kleene_part(ambient)
        inside = set(k_part.elements)
        kept = [(a, b) for a, b in steps if a in inside and b in inside]
        assert validate_poset(k_part.elements, kept).up_masks == k_part.up_masks

    def test_embedding_check_agrees_on_broken_vectors(self, invposets_upto_6):
        verdicts = []
        for iv in invposets_upto_6:
            if not 1 <= len(iv.elements) <= 4:
                continue
            n, vectors = canonical_embedding(iv, prune=True)
            target = power(DIAMOND, n)
            for broken in one_digit_changes(iv, vectors):
                try:
                    materialised_check_embedding(iv, target, broken)
                    ok = True
                except ValidationError:
                    ok = False
                verdicts.append(ok)
                if ok:
                    _check_embedding(iv, broken)
                else:
                    with pytest.raises(ValidationError):
                        _check_embedding(iv, broken)
        # the tally follows the representatives' element order: it sets the columns
        assert (verdicts.count(True), verdicts.count(False)) == (86, 754)

    def test_retraction_check_agrees_on_broken_embeddings(self, invposets_upto_6):
        refused = 0
        for iv in invposets_upto_6:
            if not 1 <= len(iv.elements) <= 4:
                continue
            n, vectors = canonical_embedding(iv, prune=True)
            target = power(DIAMOND, n)
            for variety in varieties(iv):
                if not is_projective_dual(iv, variety)[0]:
                    continue
                for broken in one_digit_changes(iv, vectors):
                    e = make_inv_morphism(iv, target, broken)
                    try:
                        want = materialised_retraction(iv, variety, (n, e))
                    except (ValidationError, AssertionError) as exc:
                        # the old body asserted where the library raises;
                        # on a vector shared by two points it kept one
                        # original, where the library reads both
                        refused += 1
                        injective = len(set(broken.values())) == len(broken)
                        message = re.escape(str(exc)) if injective else None
                        with pytest.raises(ValidationError, match=message):
                            build_retraction(iv, variety, (n, broken))
                        continue
                    got = build_retraction(iv, variety, (n, broken))
                    assert list(got.items()) == list(want.mapping)
        assert refused == 64


class TestOracle:
    def test_diamond_identity_found(self, diamond):
        ident = {x: x for x in diamond.elements}
        found = oracle_retraction_search(diamond, embedding=(1, ident))
        assert found is not None and is_identity(found)

    def test_antichain_swap_absent(self, antichain_swap):
        emb = canonical_embedding(antichain_swap)
        assert oracle_retraction_search(antichain_swap, embedding=emb) is None

    def test_chain_finds_valid_retraction(self):
        ch = three_chain()
        vectors = {"2": "2", "0": "0", "3": "3"}
        validate_inv_morphism(ch, DIAMOND, vectors)
        found = oracle_retraction_search(ch, embedding=(1, vectors))
        assert found is not None
        found.check()
        for x in ch.elements:
            assert found(x) == x

    def test_kleene_refused_on_non_kleene_input(self, antichain_swap):
        # as build_retraction refuses it: the Kleene part of the ambient
        # holds no vector of a non-Kleene point
        with pytest.raises(PreconditionError, match="non-Kleene object"):
            oracle_retraction_search(antichain_swap, variety="kleene")

    def test_size_guard(self):
        # D^5's 1,024 points are more than any map into D^4 separates
        with pytest.raises(SizeGuardError, match="1024 points exceed the 256 of D"):
            oracle_retraction_search(power(DIAMOND, 5))

    def test_pruned_embeddings_of_small_classes_need_193_nodes(self, monkeypatch):
        # the figure README's guard table and ORACLE_NODES's comment give
        # for oracle_embedding, the oracle's default
        def verdicts(budget):
            monkeypatch.setattr(projectivity, "ORACLE_NODES", budget)
            decided = refused = 0
            for iv in enumerate_invposets_upto(4):
                if not iv.elements:
                    continue
                emb = projectivity.oracle_embedding(iv)
                for variety in varieties(iv):
                    try:
                        oracle_retraction_search(iv, embedding=emb, variety=variety)
                        decided += 1
                    except SizeGuardError:
                        refused += 1
            return decided, refused

        assert verdicts(193) == (34, 0)
        assert verdicts(192) == (33, 1)


class TestFastPath:
    def test_diamond(self, diamond):
        assert m3_fast_path(diamond)

    def test_requires_lattice(self, antichain_swap):
        with pytest.raises(PreconditionError):
            m3_fast_path(antichain_swap)

    def test_lattices_meet_m3_k1_and_k2(self, invposets_upto_8):
        # on a lattice i is a dual automorphism, so the self-below part is
        # closed under meets and under joins of points below each other's
        # involutes; classify's De Morgan tests leave m3 out for this
        lattices = [
            iv for iv in invposets_upto_8 if len(iv) <= 7 and lattice_report(iv).is_nonempty_lattice
        ]
        assert len(lattices) == 42
        for iv in lattices:
            rep = condition_report(iv)
            assert rep.m3 and rep.k1 and rep.k2, iv

    def test_agreement_on_lattice_corpus(self):
        # both routes must agree whenever the carrier is a lattice
        lattice_cases = 0
        for iv in enumerate_invposets_upto(5):
            rep = condition_report(iv)
            if rep.m1:
                assert m3_fast_path(iv) == rep.m3
                lattice_cases += 1
        assert lattice_cases >= 10


class TestBooleanCube:
    def test_crown_is_not_a_lattice_hence_no_retraction(self):
        # three-element check at the guard boundary: the V-shape has no
        # monotone retraction off its cube, matching the decider
        vee = validate_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
        ok, _ = is_projective_dual(vee, "bdl")
        found = oracle_poset_retraction(vee, cube_embedding(vee))
        assert not ok and found is None

    def test_two_chain_retracts(self):
        two = validate_poset(["a", "b"], [("a", "b")])
        found = oracle_poset_retraction(two, cube_embedding(two))
        assert found is not None
        found.check()
