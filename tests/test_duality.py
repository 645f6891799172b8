"""Object- and morphism-level round trips of the finite dualities."""

import pytest
from hypothesis import given, settings

from morgan_unify import (
    DIAMOND,
    demorgan_dual,
    demorgan_from_dual,
    downset_algebra,
    enumerate_posets_upto,
    find_inv_isomorphism,
    find_isomorphism,
    join_irreducibles,
    kleene_part,
    power,
    validate_algebra,
    validate_inv_morphism,
    validate_poset,
)
from morgan_unify.algebra import TAG_BOOLEAN, TAG_KLEENE
from morgan_unify.involutive import make_inv_morphism, make_invposet

from morphisms import (
    canonical_iso,
    compose_homs,
    compose_inv,
    dual_of_hom,
    enumerate_homomorphisms,
    hom_of_map,
    is_identity,
    validate_homomorphism,
)
from strategies import invposets, posets


def boolean_four():
    return validate_algebra(
        validate_poset(
            ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        ),
        {"0": "1", "1": "0", "a": "b", "b": "a"},
    )


class TestObjectLevel:
    def test_irreducibles_of_free_demorgan_one(self, fm1):
        ji = join_irreducibles(fm1)
        assert len(ji.elements) == 4
        assert find_isomorphism(ji, DIAMOND) is not None

    def test_irreducibles_of_two_chain(self):
        two = validate_algebra(validate_poset(["0", "1"], [("0", "1")]))
        assert join_irreducibles(two).elements == ("1",)

    def test_irreducibles_of_boolean_four(self):
        ji = join_irreducibles(boolean_four())
        assert set(ji.elements) == {"a", "b"}
        assert not ji.leq("a", "b") and not ji.leq("b", "a")

    def test_downsets_of_antichain(self):
        alg = downset_algebra(validate_poset(["a", "b"], []))
        assert len(alg) == 4
        assert find_isomorphism(alg.carrier, boolean_four().carrier) is not None

    def test_downsets_of_diamond_poset(self, fm1):
        alg = downset_algebra(DIAMOND)
        assert alg.elements == ("{}", "{2}", "{2,0}", "{2,1}", "{2,0,1}", "{2,0,1,3}")
        assert find_isomorphism(alg.carrier, fm1.carrier) is not None

    def test_downsets_of_empty_poset(self):
        alg = downset_algebra(validate_poset([], []))
        assert len(alg) == 1

    def test_demorgan_dual_of_fm1_is_diamond(self, fm1):
        dual = demorgan_dual(fm1)
        iso = find_inv_isomorphism(dual, DIAMOND)
        # the expected matching: meet of the generators to the bottom,
        # generator pair to the fixed points, top to the top
        assert iso == {"m": "2", "x": "0", "xp": "1", "1": "3"}

    def test_demorgan_dual_of_boolean_two(self):
        two = validate_algebra(
            validate_poset(["0", "1"], [("0", "1")]), {"0": "1", "1": "0"}
        )
        dual = demorgan_dual(two)
        assert dual.elements == ("1",)
        assert dual.i("1") == "1"

    def test_demorgan_dual_of_boolean_four_fixes_atoms(self):
        # the involution formula evaluates to the identity on the two
        # atoms; the swap belongs to the non-Boolean four-element algebra
        dual = demorgan_dual(boolean_four())
        assert dual.i("a") == "a" and dual.i("b") == "b"

    def test_from_dual_of_diamond(self, fm1):
        alg = demorgan_from_dual(DIAMOND)
        assert len(alg) == 6
        assert TAG_KLEENE in alg.variety_tags
        assert (
            find_inv_isomorphism(
                make_invposet(alg.carrier, alg.neg), make_invposet(fm1.carrier, fm1.neg)
            )
            is not None
        )

    def test_from_dual_of_fixed_point(self, point):
        alg = demorgan_from_dual(point)
        assert len(alg) == 2
        assert TAG_BOOLEAN in alg.variety_tags

    def test_from_dual_of_swap_antichain_is_not_boolean(self, antichain_swap):
        alg = demorgan_from_dual(antichain_swap)
        assert len(alg) == 4
        assert TAG_KLEENE not in alg.variety_tags
        mids = [x for x in alg.elements if x not in (alg.zero, alg.one)]
        assert all(alg.neg[x] == x for x in mids)

    def test_kleene_tag_tracks_kleene_flag(self, antichain_swap):
        assert TAG_KLEENE in demorgan_from_dual(DIAMOND).variety_tags
        assert TAG_KLEENE not in demorgan_from_dual(antichain_swap).variety_tags


class TestRoundTrips:
    @given(posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_irreducibles_after_downsets(self, p):
        assert find_isomorphism(join_irreducibles(downset_algebra(p)), p) is not None

    @given(posets(max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_downsets_after_irreducibles(self, p):
        alg = downset_algebra(p)
        again = downset_algebra(join_irreducibles(alg))
        assert find_isomorphism(alg.carrier, again.carrier) is not None

    @given(invposets(max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_demorgan_pair_round_trip(self, iv):
        back = demorgan_dual(demorgan_from_dual(iv))
        assert find_inv_isomorphism(back, iv) is not None

    def test_free_dual_reproduction(self):
        for n in (1, 2):
            dn = power(DIAMOND, n)
            back = demorgan_dual(demorgan_from_dual(dn))
            assert find_inv_isomorphism(back, dn) is not None


class TestMorphismLevel:
    def test_dual_of_identity(self, fm1):
        h = validate_homomorphism(fm1, fm1, {x: x for x in fm1.elements})
        assert is_identity(dual_of_hom(h))

    def test_dual_of_bound_inclusion(self, fm1):
        two = validate_algebra(
            validate_poset(["0", "1"], [("0", "1")]), {"0": "1", "1": "0"}
        )
        h = validate_homomorphism(two, fm1, {"0": "0", "1": "1"})
        dual = dual_of_hom(h)
        assert len(dual.dom) == 4 and len(dual.cod) == 1
        assert set(dual.as_dict.values()) == {"1"}

    def test_dual_of_generator_swap(self, fm1):
        h = validate_homomorphism(
            fm1, fm1, {"0": "0", "1": "1", "m": "m", "j": "j", "x": "xp", "xp": "x"}
        )
        dual = dual_of_hom(h)
        assert dual.as_dict == {"m": "m", "x": "xp", "xp": "x", "1": "1"}
        dual.check()

    def test_hom_of_identity_map(self):
        ident = make_inv_morphism(DIAMOND, DIAMOND, {x: x for x in DIAMOND.elements})
        h = hom_of_map(ident)
        h.check()
        assert all(h(x) == x for x in h.dom.elements)

    def test_hom_of_constant_map(self, point):
        const = validate_inv_morphism(
            DIAMOND, point, {x: "p" for x in DIAMOND.elements}
        )
        h = hom_of_map(const)
        h.check()
        assert len(h.dom) == 2 and len(h.cod) == 6

    def test_hom_of_kleene_part_inclusion_is_surjective(self):
        d2 = power(DIAMOND, 2)
        part = kleene_part(d2)
        incl = validate_inv_morphism(part, d2, {x: x for x in part.elements})
        h = hom_of_map(incl)
        h.check()
        assert set(h.as_dict.values()) == set(h.cod.elements)
        assert TAG_KLEENE in h.cod.variety_tags

    def test_contravariance_on_composition(self, fm1):
        two = validate_algebra(
            validate_poset(["0", "1"], [("0", "1")]), {"0": "1", "1": "0"}
        )
        h = validate_homomorphism(two, fm1, {"0": "0", "1": "1"})
        g = validate_homomorphism(
            fm1, fm1, {"0": "0", "1": "1", "m": "m", "j": "j", "x": "xp", "xp": "x"}
        )
        left = dual_of_hom(compose_homs(g, h))
        right = compose_inv(dual_of_hom(h), dual_of_hom(g))
        assert left.as_dict == right.as_dict

    def test_round_trip_on_small_algebra_homs(self):
        # all homs between corpus algebras of at most six elements,
        # compared through the canonical double-dual isomorphisms
        algebras = [
            alg
            for alg in (downset_algebra(p) for p in enumerate_posets_upto(3))
            if len(alg) <= 6
        ]
        checked = 0
        for a in algebras:
            eta_a = canonical_iso(a)
            for b in algebras:
                eta_b = canonical_iso(b)
                for h in enumerate_homomorphisms(a, b):
                    back = hom_of_map(dual_of_hom(h))
                    for x in a.elements:
                        assert back(eta_a(x)) == eta_b(h(x))
                    checked += 1
        assert checked > 50


class TestInternalConsistency:
    def test_dual_guard_rejects_non_demorgan(self):
        plain = validate_algebra(validate_poset(["0", "1"], [("0", "1")]))
        with pytest.raises(Exception):
            demorgan_dual(plain)
