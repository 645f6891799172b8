import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from morgan_unify import (
    DIAMOND,
    ValidationError,
    enumerate_inv_morphisms,
    enumerate_invposets_upto,
    find_inv_isomorphism,
    kleene_part,
    power,
    product,
    validate_inv_morphism,
    validate_involutive,
    validate_poset,
)
from morgan_unify.involutive import make_inv_morphism, make_invposet
from morgan_unify.order import _iso_signature, bits

from morphisms import compose_inv
from reference import (
    involutions_of,
    ordered_brute_force,
    pairwise_power,
    pairwise_product,
    permutation_involutions,
    poset_from_mask,
    reference_inv_restrict,
    reference_invposets_upto,
    transitive_masks,
)
from strategies import invposets


class TestValidateInvolutive:
    def test_diamond(self):
        assert DIAMOND.is_kleene
        assert DIAMOND.fixed_points == ("0", "1")

    def test_antichain_swap_not_kleene(self, antichain_swap):
        assert not antichain_swap.is_kleene

    def test_identity_on_chain_not_antitone(self):
        chain = validate_poset(["a", "b"], [("a", "b")])
        with pytest.raises(ValidationError, match="antitone") as exc:
            validate_involutive(chain, {"a": "a", "b": "b"})
        assert exc.value.witness == ("a", "b")

    def test_non_involutive(self):
        p = validate_poset(["a", "b", "c"], [])
        with pytest.raises(ValidationError, match="involutive"):
            validate_involutive(p, {"a": "b", "b": "c", "c": "a"})


class TestProductsAndPowers:
    def test_power_one_is_diamond(self):
        assert power(DIAMOND, 1) == DIAMOND

    def test_power_two_matches_figure(self):
        d2 = power(DIAMOND, 2)
        assert len(d2) == 16
        assert set(d2.elements) == {a + b for a in "2013" for b in "2013"}
        assert d2.i("23") == "32"
        assert d2.leq("22", "33")

    def test_power_sizes_and_fixed_points(self):
        for n in (1, 2, 3):
            dn = power(DIAMOND, n)
            assert len(dn) == 4**n
            assert len(dn.fixed_points) == 2**n

    def test_product_of_fixed_singletons(self, point):
        prod = product(point, point)
        assert len(prod) == 1
        assert prod.fixed_points == ("pp",)

    def test_product_matches_pairwise_reference(self):
        small = list(enumerate_invposets_upto(3))
        for p, q in itertools.product(small, repeat=2):
            assert product(p, q) == pairwise_product(p, q)
            assert product(p, q, sep=".") == pairwise_product(p, q, sep=".")
        assert len(small) ** 2 >= 25

    def test_power_matches_pairwise_reference(self):
        for n in (1, 2, 3, 4):
            assert power(DIAMOND, n) == pairwise_power(DIAMOND, n)

    def test_product_labels_must_be_unambiguous(self):
        p = validate_involutive(validate_poset(["a", "ab"], []), {"a": "a", "ab": "ab"})
        q = validate_involutive(validate_poset(["b", "bb"], []), {"b": "b", "bb": "bb"})
        with pytest.raises(ValidationError, match="ambiguous"):
            product(p, q)

    def test_associative_up_to_isomorphism(self):
        left = product(product(DIAMOND, DIAMOND), DIAMOND)
        right = product(DIAMOND, product(DIAMOND, DIAMOND))
        assert find_inv_isomorphism(left, right) is not None


class TestKleenePart:
    def test_free_kleene_two(self):
        d2 = power(DIAMOND, 2)
        part = kleene_part(d2)
        assert len(part) == 14
        assert set(d2.elements) - set(part.elements) == {"23", "32"}

    def test_diamond_fixed(self):
        assert kleene_part(DIAMOND) == DIAMOND

    def test_antichain_swap_empty(self, antichain_swap):
        assert len(kleene_part(antichain_swap)) == 0

    @given(invposets(max_size=4))
    def test_idempotent(self, iv):
        part = kleene_part(iv)
        assert kleene_part(part) == part

    @given(invposets(max_size=4))
    def test_monotone_under_substructure(self, iv):
        part = set(kleene_part(iv).elements)
        for keep in itertools.combinations(iv.elements, max(len(iv) - 2, 0)):
            closed = set(keep) | {iv.i(x) for x in keep}
            sub = iv.restrict(iv.mask(closed))
            assert set(kleene_part(sub).elements) <= part | (closed - set(iv.elements))


class TestRestrict:
    def test_witness_is_the_first_point_not_closed(self, pattern_instances):
        # the set iteration of the name form gave d, d, c, c, b, c under
        # hash seeds 0-5
        p = pattern_instances["k1"]
        with pytest.raises(ValidationError, match="'a'") as exc:
            p.restrict(p.mask("abcd"))
        assert exc.value.witness == "a"

    def test_mask_form_matches_the_name_form(self, invposets_upto_6):
        rng = random.Random(26)
        closed = 0
        for iv in invposets_upto_6:
            n = len(iv)
            for m in [0, (1 << n) - 1, *[rng.getrandbits(n) for _ in range(4)]]:
                names = iv.members(m)
                missing = [k for k in bits(m) if not m >> iv.mate[k] & 1]
                if not missing:
                    closed += 1
                    assert iv.restrict(m) == reference_inv_restrict(iv, names)
                    continue
                with pytest.raises(ValidationError) as exc:
                    iv.restrict(m)
                assert exc.value.witness == iv.elements[missing[0]]
                with pytest.raises(ValidationError):
                    reference_inv_restrict(iv, names)
        assert 0 < closed < 6 * len(invposets_upto_6)


class TestInvMorphisms:
    def test_identity_valid(self):
        validate_inv_morphism(DIAMOND, DIAMOND, {x: x for x in DIAMOND.elements})

    def test_constant_to_fixed_point(self, point):
        validate_inv_morphism(DIAMOND, point, {x: "p" for x in DIAMOND.elements})

    def test_commutation_failure_reported(self):
        with pytest.raises(ValidationError, match="commutation") as exc:
            validate_inv_morphism(
                DIAMOND, DIAMOND, {"2": "0", "3": "3", "0": "0", "1": "1"}
            )
        assert exc.value.witness == "2"

    def test_point_into_diamond(self, point):
        maps = [m.as_dict for m in enumerate_inv_morphisms(point, DIAMOND)]
        assert maps == [{"p": "0"}, {"p": "1"}]

    def test_diamond_onto_point(self, point):
        assert sum(1 for _ in enumerate_inv_morphisms(DIAMOND, point)) == 1

    def test_antichain_swap_into_diamond(self, antichain_swap):
        # brute force over all 16 total maps: the two injections onto
        # {2, 3} plus the two constants onto fixed points commute
        brute = []
        for va, vb in itertools.product(DIAMOND.elements, repeat=2):
            f = {"a": va, "b": vb}
            if f["b"] == DIAMOND.i(f["a"]) and f["a"] == DIAMOND.i(f["b"]):
                brute.append(f)
        enumerated = [m.as_dict for m in enumerate_inv_morphisms(antichain_swap, DIAMOND)]
        assert len(enumerated) == len(brute) == 4
        assert {tuple(sorted(m.items())) for m in enumerated} == {
            tuple(sorted(m.items())) for m in brute
        }

    def test_composition_closes(self, point):
        for f in enumerate_inv_morphisms(point, DIAMOND):
            for g in enumerate_inv_morphisms(DIAMOND, DIAMOND):
                compose_inv(g, f).check()

    @given(invposets(max_size=3))
    @settings(max_examples=25)
    def test_enumeration_matches_brute_force(self, iv):
        fast = [m.mapping for m in enumerate_inv_morphisms(iv, DIAMOND)]
        brute = ordered_brute_force(
            iv, DIAMOND, lambda f: make_inv_morphism(iv, DIAMOND, f)
        )
        assert fast == [m.mapping for m in brute]


class TestInvPosetEnumeration:
    def test_class_counts_small(self):
        counts = {}
        for iv in enumerate_invposets_upto(4):
            counts[len(iv)] = counts.get(len(iv), 0) + 1
        assert counts == {0: 1, 1: 1, 2: 3, 3: 4, 4: 13}

    def test_class_counts_up_to_eight(self, invposets_upto_8):
        counts = Counter(len(iv) for iv in invposets_upto_8)
        assert [counts[n] for n in range(9)] == [1, 1, 3, 4, 13, 22, 80, 176, 755]
        assert sum(1 for iv in invposets_upto_8 if iv.is_kleene and len(iv) <= 6) == 61

    def test_valid_and_listed_along_a_linear_extension(self, invposets_upto_8):
        for iv in invposets_upto_8:
            assert validate_involutive(iv, iv.inv) == iv
            for i, up in enumerate(iv.up_masks):
                assert up & ((1 << i) - 1) == 0

    def test_classes_match_the_reference_route_up_to_seven(self):
        # each grown class is isomorphic to exactly one class of the route
        # through poset classes and their involutions, and vice versa
        grown = list(enumerate_invposets_upto(7))
        old = list(reference_invposets_upto(7))
        assert len(grown) == len(old) == 300

        def key(iv):
            return _iso_signature(iv), len(iv.fixed_points)

        buckets = {}
        for r in old:
            buckets.setdefault(key(r), []).append(r)
        matched = Counter()
        for iv in grown:
            hits = [
                i for i, r in enumerate(buckets.get(key(iv), []))
                if find_inv_isomorphism(iv, r) is not None
            ]
            assert len(hits) == 1
            matched[key(iv), hits[0]] += 1
        assert len(matched) == len(old) and set(matched.values()) == {1}

    def test_poset_classes_are_ignored(self, posets_upto_6):
        first = [p for p in posets_upto_6 if len(p) <= 2]
        assert list(enumerate_invposets_upto(4, first)) == list(enumerate_invposets_upto(4))

    def test_negative_size_yields_nothing(self):
        assert list(enumerate_invposets_upto(-1)) == []

    def test_every_labeled_invposet_covered_up_to_three(self):
        reps = list(enumerate_invposets_upto(3))
        for n in range(4):
            for succ in transitive_masks(n):
                base = poset_from_mask(succ)
                for sigma in permutation_involutions(base):
                    iv = make_invposet(base, sigma)
                    hits = [
                        r for r in reps if find_inv_isomorphism(iv, r) is not None
                    ]
                    assert len(hits) == 1

    def test_involutions_match_the_permutation_walk(self, posets_upto_6):
        for p in posets_upto_6:
            found = [tuple(sorted(s.items())) for s in involutions_of(p)]
            walked = {tuple(sorted(s.items())) for s in permutation_involutions(p)}
            assert len(found) == len(set(found))
            assert set(found) == walked

    @given(invposets(max_size=4))
    def test_inv_swaps_minimals_and_maximals(self, iv):
        minimals = set(iv.minimals())
        maximals = set(iv.maximals())
        assert {iv.i(x) for x in minimals} == maximals
