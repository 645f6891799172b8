import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morgan_unify import (
    DIAMOND,
    ValidationError,
    enumerate_invposets_upto,
    enumerate_monotone_maps,
    enumerate_posets_upto,
    find_inv_isomorphism,
    find_isomorphism,
    is_three_complete,
    kleene_part,
    lattice_report,
    power,
    validate_poset,
)
from morgan_unify.documents import structure_document
from morgan_unify.involutive import make_invposet
from morgan_unify.order import Poset, make_monotone_map

from morphisms import strictly_below
from reference import (
    POSET_CLASS_COUNTS,
    dfs_is_three_complete,
    down_of,
    dual,
    from_pairs,
    le_pairs,
    ordered_brute_force,
    pair_subset_posets_upto,
    reference_covers,
    reference_lattice_report,
    reference_restrict,
    reference_validate_poset,
    scan_join,
    scan_meet,
    string_self_below,
    upper_bounds,
)
from strategies import chain, grid, posets


def d_poset():
    return validate_poset(
        ["2", "0", "1", "3"], [("2", "0"), ("2", "1"), ("0", "3"), ("1", "3")]
    )


class TestValidate:
    def test_singleton(self):
        p = validate_poset(["a"], [])
        assert le_pairs(p) == frozenset({("a", "a")})

    def test_diamond_covers(self):
        p = d_poset()
        assert len(le_pairs(p)) == 9
        assert p.leq("2", "3")

    def test_antisymmetry_violation(self):
        with pytest.raises(ValidationError, match="antisymmetry"):
            validate_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_element(self):
        with pytest.raises(ValidationError, match="duplicate"):
            validate_poset(["a", "a"], [])

    def test_dangling_pair(self):
        with pytest.raises(ValidationError, match="dangling"):
            validate_poset(["a"], [("a", "b")])

    def test_le_mode_requires_transitivity(self):
        with pytest.raises(ValidationError, match="transitivity"):
            validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c")], mode="le")

    def test_le_mode_accepts_closed_relation(self):
        p = validate_poset(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], mode="le"
        )
        assert p.leq("a", "c")

    def test_long_chain_within_small_recursion_limit(self):
        names = [f"c{i:04d}" for i in range(3000)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            chain = validate_poset(names, list(zip(names, names[1:])))
            doc = structure_document(chain)
        finally:
            sys.setrecursionlimit(limit)
        assert doc["covers"] == [[a, b] for a, b in zip(names, names[1:])]
        assert chain.leq(names[0], names[-1]) and not chain.leq(names[-1], names[0])


@st.composite
def raw_relations(draw, max_size=8):
    """Elements and pairs as a document could give them: self-loops,
    repeated pairs and cycles included, names not in element order, and
    now and then a repeated element or a dangling pair."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    names = draw(st.permutations([f"e{i}" for i in range(n)]))
    elems = list(names)
    if n and draw(st.integers(0, 19)) == 0:
        elems.append(draw(st.sampled_from(names)))
    targets = names + (["zz"] if draw(st.integers(0, 19)) == 0 else [])
    if not targets:
        return elems, []
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(targets), st.sampled_from(targets)),
                 max_size=3 * max_size)
    )
    if draw(st.booleans()):
        # along a drawn order, so that the relation can be acyclic while
        # the element order is no linear extension of it
        rank = {x: i for i, x in enumerate(draw(st.permutations(names)))}
        rank["zz"] = n
        pairs = [tuple(sorted(p, key=rank.__getitem__)) for p in pairs]
    return elems, pairs


def outcome_of(build):
    try:
        return build(), None
    except ValidationError as exc:
        return None, (str(exc), exc.witness)


def assert_matches_reference(elements, pairs, mode):
    p, error = outcome_of(lambda: validate_poset(elements, pairs, mode))
    ref, ref_error = outcome_of(lambda: reference_validate_poset(elements, pairs, mode))
    assert error == ref_error
    if ref is None:
        return
    elems, le = ref
    assert p.elements == elems
    assert le_pairs(p) == le
    assert all(p.leq(x, y) == ((x, y) in le) for x in elems for y in elems)
    assert p.covers() == reference_covers(elems, le)


class TestValidateAgainstReference:
    def test_every_poset_upto_6(self, posets_upto_6):
        for p in posets_upto_6:
            elems, covers = p.elements, list(p.covers())
            le = sorted(le_pairs(p))
            cases = [
                (elems, covers, "covers"),
                (elems, covers, "le"),
                (elems, le, "le"),
                (tuple(reversed(elems)), list(reversed(covers)), "covers"),
            ]
            if covers:
                # one cover reversed: a cycle in either mode
                cases += [
                    (elems, covers + [covers[0][::-1]], "covers"),
                    (elems, le + [covers[-1][::-1]], "le"),
                ]
            for elements, pairs, mode in cases:
                assert_matches_reference(elements, pairs, mode)

    @given(raw_relations(), st.sampled_from(["covers", "le"]))
    @settings(max_examples=300)
    def test_random_relations(self, relation, mode):
        elements, pairs = relation
        assert_matches_reference(elements, pairs, mode)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown closure mode"):
            validate_poset(["a"], [], mode="closure")


class TestSubposet:
    def test_downset_of_zero(self):
        assert down_of(d_poset(), ["0"]) == {"2", "0"}

    def test_interval_two_three(self):
        p = d_poset()
        assert p.interval("2", "3") == {"2", "0", "1", "3"}
        assert p.restrict(p.mask(p.interval("2", "0"))).elements == ("2", "0")

    def test_minimals(self):
        assert d_poset().minimals() == ("2",)

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            d_poset().mask(["nope"])

    def test_mask_form_matches_the_name_form(self, posets_upto_6):
        rng = random.Random(26)
        for p in posets_upto_6:
            n = len(p)
            for keep in (0, (1 << n) - 1, *[rng.getrandbits(n) for _ in range(4)]):
                assert p.restrict(keep) == reference_restrict(p, p.members(keep))

    def test_names_outside_the_poset(self):
        p = d_poset()
        for x, y in (("nope", "3"), ("2", "nope"), ("nope", "nope")):
            assert not p.leq(x, y)
            assert not strictly_below(p, x, y)
        for call in (
            lambda: p.interval("nope", "3"),
            lambda: p.interval("2", "nope"),
            lambda: down_of(p, ["0", "nope"]),
            lambda: p.up_of(["nope"]),
        ):
            with pytest.raises(KeyError):
                call()


class TestBounds:
    def test_join_in_diamond(self):
        assert d_poset().join(["0", "1"]) == "3"
        assert d_poset().meet(["0", "1"]) == "2"

    def test_antichain_join_absent(self):
        p = validate_poset(["a", "b"], [])
        assert p.join(["a", "b"]) is None

    def test_crown_pair_join_absent(self, crown):
        assert crown.join(["a", "b"]) is None

    def test_join_of_singleton(self):
        assert d_poset().join(["0"]) == "0"

    def test_join_of_empty_is_bottom(self):
        assert d_poset().join([]) == "2"
        assert validate_poset(["a", "b"], []).join([]) is None
        assert validate_poset([], []).join([]) is None

    def test_unknown_element_raises_key_error(self):
        with pytest.raises(KeyError):
            d_poset().join(["0", "nope"])
        with pytest.raises(KeyError):
            d_poset().meet(["nope"])

    def test_lookup_matches_scan_on_every_subset(self):
        # every subset of every poset of at most 5 points
        subsets = 0
        for p in enumerate_posets_upto(5):
            for size in range(len(p.elements) + 1):
                for xs in itertools.combinations(p.elements, size):
                    assert p.join(xs) == scan_join(p, xs)
                    assert p.meet(xs) == scan_meet(p, xs)
                    subsets += 1
        assert subsets == 2323


class TestLatticeReport:
    def test_diamond(self):
        assert lattice_report(d_poset()).is_nonempty_lattice

    def test_antichain_witness(self):
        rep = lattice_report(validate_poset(["a", "b"], []))
        assert not rep.is_nonempty_lattice
        assert rep.witness == ("a", "b")

    def test_crown_witness(self, crown):
        rep = lattice_report(crown)
        assert not rep.is_nonempty_lattice
        assert rep.witness == ("a", "b")

    def test_empty(self):
        rep = lattice_report(validate_poset([], []))
        assert not rep.is_nonempty_lattice
        assert not rep.is_meet_semilattice

    def test_matches_all_pairs_reference_up_to_seven(self, posets_upto_7):
        flags = Counter()
        for p in posets_upto_7:
            for q in (p, dual(p)):
                rep = lattice_report(q)
                assert rep == reference_lattice_report(q)
                flags[rep.is_nonempty_lattice, rep.is_meet_semilattice] += 1
        assert set(flags) == {(True, True), (False, True), (False, False)}

    def test_matches_all_pairs_reference_up_to_200_points(self):
        # chains and grids, whose pairs are mostly comparable, and
        # restricted intervals of grids, which lack joins and meets at
        # pairs spread over the element order
        rng = random.Random(1401)
        cases = [chain(1), chain(2), chain(200), grid(12, 14), grid(10, 20)]
        for a, b in ((6, 6), (12, 14), (10, 20)):
            g = grid(a, b)
            # no top: a meet-semilattice
            cases.append(g.restrict(g.mask(g.elements[:-1])))
            for k in range(8):
                # the whole grid twice, then random intervals
                x, y = (0, a * b - 1) if k < 2 else rng.sample(range(a * b), 2)
                low = f"g{min(x // b, y // b)}_{min(x % b, y % b)}"
                high = f"g{max(x // b, y // b)}_{max(x % b, y % b)}"
                span = sorted(g.interval(low, high))
                drop = rng.sample(span, len(span) // rng.choice((3, 8, 30)))
                cases.append(g.restrict(g.mask(set(span) - set(drop))))
        flags = Counter()
        for p in cases:
            for q in (p, dual(p)):
                rep = lattice_report(q)
                assert rep == reference_lattice_report(q)
                flags[rep.is_nonempty_lattice, rep.is_meet_semilattice] += 1
        assert set(flags) == {(True, True), (False, True), (False, False)}
        assert max(len(p.elements) for p in cases[5:]) > 180


class TestThreeComplete:
    def test_chain(self):
        p = validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert is_three_complete(p) == (True, None)

    def test_diamond_lower_part(self):
        p = d_poset()
        sub = p.restrict(p.mask(["2", "0", "1"]))
        assert is_three_complete(sub) == (True, None)

    def test_bowtie_counterexample(self):
        p = validate_poset(
            ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        )
        ok, bad = is_three_complete(p)
        assert not ok
        assert bad == {"a", "b"}

    def test_unbounded_triple_counterexample(self):
        # a, b, c are pairwise bounded by ab, ac, bc but have no common bound
        p = validate_poset(
            ["a", "b", "c", "ab", "ac", "bc"],
            [("a", "ab"), ("b", "ab"), ("a", "ac"), ("c", "ac"), ("b", "bc"), ("c", "bc")],
        )
        assert is_three_complete(p) == (False, {"a", "b", "c"})

    def test_pair_witness_comes_before_triple(self):
        # the triple a, b, c is unbounded, but the later pair d, e has two
        # minimal upper bounds; a failing pair is reported first
        p = validate_poset(
            ["a", "b", "c", "ab", "ac", "bc", "d", "e", "f", "g"],
            [("a", "ab"), ("b", "ab"), ("a", "ac"), ("c", "ac"), ("b", "bc"),
             ("c", "bc"), ("d", "f"), ("d", "g"), ("e", "f"), ("e", "g")],
        )
        assert is_three_complete(p) == (False, {"d", "e"})

    def test_agrees_with_dfs_on_posets_upto_6(self, posets_upto_6):
        failing = 0
        for p in posets_upto_6:
            ok, bad = is_three_complete(p)
            assert ok == dfs_is_three_complete(p)[0]
            if not ok:
                assert_genuine_counterexample(p, bad)
                failing += 1
            else:
                assert bad is None
        assert failing > 0

    def test_agrees_with_dfs_on_self_below_parts(self, invposets_upto_6, pattern_instances):
        structures = list(invposets_upto_6) + list(pattern_instances.values())
        structures += [power(DIAMOND, 2), kleene_part(power(DIAMOND, 2))]
        failing = 0
        for iv in structures:
            sub = Poset.restrict(iv, iv.mask(string_self_below(iv)))
            ok, bad = is_three_complete(sub)
            assert ok == dfs_is_three_complete(sub)[0]
            if not ok:
                assert_genuine_counterexample(sub, bad)
                failing += 1
        assert failing > 0


def assert_genuine_counterexample(p: Poset, bad) -> None:
    """`bad` is a 2- or 3-point pairwise-bounded subset with no join."""
    assert len(bad) in (2, 3)
    assert all(upper_bounds(p, pair) for pair in itertools.combinations(bad, 2))
    assert scan_join(p, bad) is None


class TestEnumeration:
    def test_counts_up_to_five(self):
        counts = {}
        for p in enumerate_posets_upto(5):
            counts[len(p.elements)] = counts.get(len(p.elements), 0) + 1
        assert [counts[i] for i in range(6)] == list(POSET_CLASS_COUNTS[:6])

    def test_counts_up_to_seven(self, posets_upto_7):
        counts = Counter(len(p.elements) for p in posets_upto_7)
        assert [counts[i] for i in range(8)] == list(POSET_CLASS_COUNTS)

    def test_element_order_is_a_linear_extension(self, posets_upto_7):
        for p in posets_upto_7:
            n = len(p.elements)
            assert p.elements == tuple(str(i) for i in range(n))
            assert all(u >> i << i == u for i, u in enumerate(p.up_masks))

    def test_each_class_is_one_pair_subset_class(self, posets_upto_6):
        # the classes that the walk over all subsets of the pairs of a
        # fixed linear order harvests, matched by isomorphism both ways
        old = list(pair_subset_posets_upto(6))
        assert len(old) == len(posets_upto_6)
        buckets = {}
        for k, q in enumerate(old):
            buckets.setdefault(len(q.elements), []).append(k)
        matched = []
        for p in posets_upto_6:
            hits = [
                k
                for k in buckets[len(p.elements)]
                if find_isomorphism(p, old[k]) is not None
            ]
            assert len(hits) == 1
            matched.append(hits[0])
        assert sorted(matched) == list(range(len(old)))

    def test_k_equals_one(self):
        sizes = [len(p.elements) for p in enumerate_posets_upto(1)]
        assert sizes == [0, 1]

    def test_negative_k_is_empty(self):
        assert list(enumerate_posets_upto(-1)) == []

    def test_cumulative_at_four(self):
        assert sum(1 for _ in enumerate_posets_upto(4)) == 25

    def test_size_six_count(self):
        assert sum(1 for p in enumerate_posets_upto(6) if len(p.elements) == 6) == 318

    def test_streams_are_independent(self):
        first = enumerate_posets_upto(3)
        second = enumerate_posets_upto(3)
        interleaved = [next(first), next(second), next(first), next(second)]
        assert interleaved[0] == interleaved[1]
        assert interleaved[2] == interleaved[3]
        assert list(first) == list(second)

    def test_pairwise_nonisomorphic_size_three(self):
        reps = [p for p in enumerate_posets_upto(3) if len(p.elements) == 3]
        for p, q in itertools.combinations(reps, 2):
            assert find_isomorphism(p, q) is None


def brute_isomorphism(p: Poset, q: Poset, op_p=None, op_q=None):
    """First isomorphism in the search's order, by exhaustive listing."""
    if len(p.elements) != len(q.elements):
        return None

    def is_iso(f):
        return all(
            p.leq(x, y) == q.leq(f(x), f(y)) for x in p.elements for y in p.elements
        ) and (op_p is None or all(f(op_p[x]) == op_q[f(x)] for x in p.elements))

    found = ordered_brute_force(
        p, q, lambda f: make_monotone_map(p, q, f), keep=is_iso
    )
    return found[0].as_dict if found else None


class TestSublatticeCompleteness:
    def test_lattices_have_three_complete_sublattices(self):
        # every join/meet-closed subset of a small lattice is again a
        # lattice, hence trivially pairwise-complete
        for p in enumerate_posets_upto(4):
            if not lattice_report(p).is_nonempty_lattice:
                continue
            for size in range(1, len(p.elements) + 1):
                for keep in itertools.combinations(p.elements, size):
                    sub = set(keep)
                    closed = all(
                        p.join((a, b)) in sub and p.meet((a, b)) in sub
                        for a in sub
                        for b in sub
                    )
                    if closed:
                        ok, _ = is_three_complete(p.restrict(p.mask(sub)))
                        assert ok


class TestIsomorphism:
    def test_diamond_relabelled(self):
        relab = validate_poset(
            ["w", "x", "y", "z"], [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")]
        )
        iso = find_isomorphism(d_poset(), relab)
        assert iso == {"2": "w", "0": "x", "1": "y", "3": "z"}

    def test_chain_vs_antichain(self):
        assert (
            find_isomorphism(
                validate_poset(["a", "b"], [("a", "b")]), validate_poset(["a", "b"], [])
            )
            is None
        )

    def test_agrees_with_brute_force_small(self):
        reps = list(enumerate_posets_upto(4))
        for p in reps:
            # relisting the elements changes the first isomorphism found
            relisted = from_pairs(reversed(p.elements), le_pairs(p))
            for q in reps:
                assert find_isomorphism(p, q) == brute_isomorphism(p, q)
                assert find_isomorphism(relisted, q) == brute_isomorphism(relisted, q)

    def test_involutive_agrees_with_brute_force_small(self):
        reps = list(enumerate_invposets_upto(4))
        for iv in reps:
            relisted = from_pairs(reversed(iv.elements), le_pairs(iv))
            for r in reps:
                for base in (iv, relisted):
                    assert find_inv_isomorphism(
                        make_invposet(base, iv.inv), r
                    ) == brute_isomorphism(base, r, iv.inv, r.inv)

    def test_deep_chain_within_small_recursion_limit(self):
        names = tuple(f"c{i:03d}" for i in range(300))
        chain = validate_poset(names, list(zip(names, names[1:])))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            iso = find_isomorphism(chain, chain)
            first = next(enumerate_monotone_maps(chain, chain))
        finally:
            sys.setrecursionlimit(limit)
        assert iso == {x: x for x in names}
        assert set(first.as_dict.values()) == {names[0]}

    @given(posets(max_size=5))
    def test_reflexive(self, p):
        assert find_isomorphism(p, p) is not None

    @given(posets(max_size=4), posets(max_size=4))
    def test_symmetric_existence(self, p, q):
        assert (find_isomorphism(p, q) is None) == (find_isomorphism(q, p) is None)


class TestMonotoneMaps:
    def test_counts(self):
        one = validate_poset(["p"], [])
        two_chain = validate_poset(["a", "b"], [("a", "b")])
        two_anti = validate_poset(["a", "b"], [])
        assert sum(1 for _ in enumerate_monotone_maps(one, d_poset())) == 4
        assert sum(1 for _ in enumerate_monotone_maps(two_chain, two_chain)) == 3
        assert sum(1 for _ in enumerate_monotone_maps(two_anti, two_chain)) == 4

    def test_empty_domain_has_one_map(self):
        empty = validate_poset([], [])
        assert sum(1 for _ in enumerate_monotone_maps(empty, d_poset())) == 1

    @given(posets(max_size=3), posets(max_size=3))
    @settings(max_examples=30)
    def test_matches_brute_force(self, p, q):
        fast = [m.mapping for m in enumerate_monotone_maps(p, q)]
        brute = ordered_brute_force(p, q, lambda f: make_monotone_map(p, q, f))
        assert fast == [m.mapping for m in brute]


class TestDualityOfOrder:
    @given(posets(max_size=5))
    def test_downsets_are_downward_closed(self, p):
        for x in p.elements:
            down = down_of(p, [x])
            assert all(y in down for z in down for y in down_of(p, [z]))

    @given(posets(max_size=5))
    def test_down_up_swap_under_dualization(self, p):
        d = dual(p)
        for x in p.elements:
            assert down_of(p, [x]) == d.up_of([x])

    @given(posets(max_size=4))
    def test_join_meet_duality(self, p):
        d = dual(p)
        for xs in itertools.combinations(p.elements, 2):
            assert p.join(xs) == d.meet(xs)
