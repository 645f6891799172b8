import pytest
from hypothesis import given, settings

from morgan_unify import (
    DIAMOND,
    PreconditionError,
    SizeGuardError,
    build_retraction,
    canonical_embedding,
    condition_report,
    enumerate_invposets_upto,
    is_projective_dual,
    kleene_part,
    oracle_retraction_search,
    power,
    validate_inv_morphism,
    validate_involutive,
    validate_poset,
)
from morgan_unify.involutive import make_inv_morphism

from reference import (
    cube_embedding,
    greedy_pruned_vectors,
    m3_fast_path,
    oracle_poset_retraction,
    reference_columns,
)
from strategies import invposets


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
        assert is_projective_dual(DIAMOND.base, "bdl")[0]


class TestCanonicalEmbedding:
    def test_fixed_point(self, point):
        n, e = canonical_embedding(point)
        assert n == 1 and e.as_dict == {"p": "0"}

    def test_diamond_prunes_to_identity_coordinate(self, diamond):
        n, e = canonical_embedding(diamond, prune=True)
        assert n == 1
        assert e.as_dict == {x: x for x in diamond.elements}

    def test_antichain_swap_coordinates(self, antichain_swap):
        n, e = canonical_embedding(antichain_swap, prune=True)
        assert n == 2
        assert e.as_dict == {"a": "23", "b": "32"}

    def test_pruning_matches_greedy_reference(self, invposets_upto_6, pattern_instances):
        def vectors(iv, columns):
            return {x: "".join(c[x] for c in columns) for x in iv.elements}

        for iv in enumerate_invposets_upto(4):
            if iv.elements:
                n, e = canonical_embedding(iv, prune=True)
                assert e.as_dict == greedy_pruned_vectors(iv)
                assert n == len(e(iv.elements[0]))
                unpruned = canonical_embedding(iv)[1].as_dict
                assert unpruned == vectors(iv, reference_columns(iv, prune=False))
        # the separating masks against the columns found by DIAMOND lookup
        for iv in [*invposets_upto_6, *pattern_instances.values()]:
            if iv.elements:
                _, e = canonical_embedding(iv, prune=True)
                assert e.as_dict == vectors(iv, reference_columns(iv, prune=True))

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
        n, e = canonical_embedding(iv, prune=True)
        e.check()
        vectors = e.as_dict
        assert len(set(vectors.values())) == len(iv.elements)
        for x in iv.elements:
            for y in iv.elements:
                if e.cod.base.leq(vectors[x], vectors[y]):
                    assert iv.base.leq(x, y)


class TestBuildRetraction:
    def test_chain_in_diamond(self):
        ch = three_chain()
        emb = (1, validate_inv_morphism(ch, DIAMOND, {"2": "2", "0": "0", "3": "3"}))
        r = build_retraction(ch, "demorgan", embedding=emb)
        assert r.as_dict == {"0": "0", "1": "0", "2": "2", "3": "3"}

    def test_diamond_identity(self, diamond):
        ident = make_inv_morphism(diamond, DIAMOND, {x: x for x in diamond.elements})
        r = build_retraction(diamond, "demorgan", embedding=(1, ident))
        assert r.is_identity()

    def test_point_constant(self, point):
        emb = (1, validate_inv_morphism(point, DIAMOND, {"p": "0"}))
        r = build_retraction(point, "demorgan", embedding=emb)
        assert set(r.as_dict.values()) == {"p"}

    def test_kleene_variant(self):
        ch = three_chain()
        emb = (1, validate_inv_morphism(ch, DIAMOND, {"2": "2", "0": "0", "3": "3"}))
        r = build_retraction(ch, "kleene", embedding=emb)
        assert r.as_dict == {"0": "0", "1": "0", "2": "2", "3": "3"}

    def test_rejects_non_projective(self, antichain_swap):
        with pytest.raises(PreconditionError):
            build_retraction(antichain_swap, "demorgan")

    def test_rejects_embedding_of_wrong_dimension(self, diamond):
        n, e = canonical_embedding(diamond, prune=True)
        with pytest.raises(PreconditionError, match="codomain"):
            build_retraction(diamond, "demorgan", embedding=(n + 1, e))

    def test_retraction_composes_to_identity(self, diamond):
        emb = canonical_embedding(diamond)
        r = build_retraction(diamond, "demorgan", embedding=emb)
        for x in diamond.elements:
            assert r(emb[1](x)) == x


class TestOracle:
    def test_diamond_identity_found(self, diamond):
        ident = make_inv_morphism(diamond, DIAMOND, {x: x for x in diamond.elements})
        found = oracle_retraction_search(diamond, embedding=(1, ident))
        assert found is not None and found.is_identity()

    def test_antichain_swap_absent(self, antichain_swap):
        emb = canonical_embedding(antichain_swap)
        assert oracle_retraction_search(antichain_swap, embedding=emb) is None

    def test_chain_finds_valid_retraction(self):
        ch = three_chain()
        emb = (1, validate_inv_morphism(ch, DIAMOND, {"2": "2", "0": "0", "3": "3"}))
        found = oracle_retraction_search(ch, embedding=emb)
        assert found is not None
        found.check()
        for x in ch.elements:
            assert found(x) == x

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            oracle_retraction_search(power(DIAMOND, 2))


class TestFastPath:
    def test_diamond(self, diamond):
        assert m3_fast_path(diamond)

    def test_requires_lattice(self, antichain_swap):
        with pytest.raises(PreconditionError):
            m3_fast_path(antichain_swap)

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
