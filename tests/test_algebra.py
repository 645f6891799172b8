import pytest
from hypothesis import given, settings

from morgan_unify import (
    DIAMOND,
    ValidationError,
    kleene_part,
    power,
    validate_algebra,
    validate_poset,
)
from morgan_unify.algebra import TAG_BDL, TAG_BOOLEAN, TAG_DEMORGAN, TAG_KLEENE
from morgan_unify.duality import demorgan_from_dual, downset_algebra

from morphisms import (
    compose_homs,
    enumerate_homomorphisms,
    make_homomorphism,
    validate_homomorphism,
)
from reference import ordered_brute_force, reference_derive_tags, scan_join, scan_meet
from strategies import posets


def boolean_two():
    return validate_algebra(
        validate_poset(["0", "1"], [("0", "1")]), {"0": "1", "1": "0"}
    )


class TestValidateAlgebra:
    def test_free_demorgan_one_tags(self, fm1):
        assert fm1.variety_tags == {TAG_BDL, TAG_DEMORGAN, TAG_KLEENE}

    def test_two_element_boolean(self):
        assert TAG_BOOLEAN in boolean_two().variety_tags

    def test_m3_not_distributive(self):
        m3 = validate_poset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
        with pytest.raises(ValidationError, match="distributive") as exc:
            validate_algebra(m3)
        assert len(exc.value.witness) == 3

    def test_not_a_lattice(self):
        with pytest.raises(ValidationError, match="lattice"):
            validate_algebra(validate_poset(["a", "b"], []))

    def test_not_a_lattice_names_the_first_unbounded_pair(self, crown):
        # x is below a and b, which have no join: c and d are both minimal
        # upper bounds
        with pytest.raises(ValidationError) as exc:
            validate_algebra(crown)
        assert str(exc.value) == "carrier is not a lattice: pair ('a', 'b') lacks a bound"
        assert exc.value.witness == ("a", "b")

    def test_not_a_lattice_witness_is_the_pairwise_scan(self, posets_upto_6):
        refused = 0
        for p in posets_upto_6:
            elems = p.elements
            first = next(
                (
                    (a, b)
                    for a in elems
                    for b in elems
                    if scan_join(p, (a, b)) is None or scan_meet(p, (a, b)) is None
                ),
                None,
            )
            if not elems or first is None:
                continue
            with pytest.raises(ValidationError, match="not a lattice") as exc:
                validate_algebra(p)
            assert exc.value.witness == first
            refused += 1
        assert refused == 405 - 25  # nonempty classes less the lattices

    def test_neg_not_antitone(self, fm1):
        bad = dict(fm1.neg)
        bad["x"], bad["0"] = "0", "x"
        bad["1"] = "1"
        with pytest.raises(ValidationError):
            validate_algebra(fm1.carrier, bad)

    def test_trivial_algebra_has_all_tags(self):
        triv = validate_algebra(validate_poset(["t"], []))
        assert triv.variety_tags == {TAG_BDL, TAG_DEMORGAN, TAG_KLEENE, TAG_BOOLEAN}

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            validate_algebra(validate_poset([], []))

    def test_tags_match_the_table_form(self, invposets_upto_6, fm1):
        d2 = power(DIAMOND, 2)
        duals = [d2, kleene_part(d2), *[iv for iv in invposets_upto_6 if len(iv) <= 5]]
        algebras = [fm1, boolean_two(), *map(demorgan_from_dual, duals)]
        seen = set()
        for alg in algebras:
            assert alg.variety_tags == reference_derive_tags(alg.carrier, alg.neg)
            seen.add(alg.variety_tags)
        assert len(seen) == 3  # De Morgan, Kleene and Boolean all occur

    def test_tag_implications(self, fm1):
        for alg in (fm1, boolean_two()):
            tags = alg.variety_tags
            if TAG_BOOLEAN in tags:
                assert TAG_KLEENE in tags
            if TAG_KLEENE in tags:
                assert TAG_DEMORGAN in tags
            if TAG_DEMORGAN in tags:
                assert alg.neg is not None


class TestHomomorphisms:
    def test_identity(self, fm1):
        validate_homomorphism(fm1, fm1, {x: x for x in fm1.elements})

    def test_unique_map_to_trivial(self, fm1):
        triv = validate_algebra(validate_poset(["t"], []))
        validate_homomorphism(fm1, triv, {x: "t" for x in fm1.elements})

    def test_threshold_at_generator_is_a_hom(self, fm1):
        # the lattice map cutting above the generator also respects the
        # negation: it is the evaluation sending the generator to 1
        h = {a: ("1" if fm1.carrier.leq("x", a) else "0") for a in fm1.elements}
        validate_homomorphism(fm1, boolean_two(), h)

    def test_threshold_at_meet_fails_negation(self, fm1):
        h = {a: ("1" if fm1.carrier.leq("m", a) else "0") for a in fm1.elements}
        with pytest.raises(ValidationError, match="negation") as exc:
            validate_homomorphism(fm1, boolean_two(), h)
        assert exc.value.witness == "m"

    def test_bound_violation_reported(self, fm1):
        h = {x: "0" for x in fm1.elements}
        with pytest.raises(ValidationError, match="1 not preserved"):
            validate_homomorphism(fm1, boolean_two(), h)

    def test_composition_closes(self, fm1):
        triv = validate_algebra(validate_poset(["t"], []))
        f = validate_homomorphism(fm1, fm1, {x: x for x in fm1.elements})
        g = validate_homomorphism(fm1, triv, {x: "t" for x in fm1.elements})
        compose_homs(g, f).check()

    def test_enumeration_matches_brute_force(self, fm1):
        b2 = boolean_two()
        found = [h.mapping for h in enumerate_homomorphisms(fm1, b2)]
        brute = ordered_brute_force(
            fm1.carrier, b2.carrier, lambda f: make_homomorphism(fm1, b2, f)
        )
        assert found == [h.mapping for h in brute]
        assert len(found) == 2  # the two evaluations of the free generator


class TestDownsetAlgebrasValidate:
    @given(posets(max_size=4))
    @settings(max_examples=40)
    def test_downset_algebra_revalidates(self, p):
        alg = downset_algebra(p)
        revalidated = validate_algebra(alg.carrier)
        assert TAG_BDL in revalidated.variety_tags
