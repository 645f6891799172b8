"""Witness families T_n: sizes, condition sets, and unifier schemas."""

import pytest

from morgan_unify import (
    PreconditionError,
    classify,
    condition_report,
    instantiate_witness,
    lattice_report,
    more_general,
    validate_involutive,
    witness_family,
)


def family_size(family, n):
    half = (n // 2) * ((n + 1) // 2)
    if family == "bdl":
        return n + 2 + half
    if family == "k1":
        return 2 + 2 * n + 3 * half
    if family == "k2":
        ordered = n * (n - 1)
        unordered = ordered // 2
        return 2 * (1 + n + ordered + ordered + unordered) + (ordered + unordered)
    if family == "m1":
        return 3 + 2 * n + 2 * half
    if family == "m2":
        return 2**n + 1
    raise ValueError(family)


RANGES = {
    "bdl": range(1, 9),
    "k1": range(2, 7),
    "k2": range(2, 5),
    "m1": range(1, 7),
    "m2": (1, 3, 5, 7),
}


@pytest.mark.parametrize("family", sorted(RANGES))
def test_sizes_match_closed_forms(family):
    for n in RANGES[family]:
        wf = witness_family(family, n)
        assert len(wf.structure.elements) == family_size(family, n)


def test_reference_sizes():
    assert family_size("bdl", 5) == 13
    assert family_size("k1", 4) == 22
    assert family_size("k2", 2) == 19
    assert family_size("m1", 3) == 13
    assert family_size("m2", 3) == 9


@pytest.mark.parametrize("family", sorted(RANGES))
def test_condition_sets(family):
    for n in RANGES[family]:
        wf = witness_family(family, n)
        if family == "bdl":
            assert lattice_report(wf.structure).is_nonempty_lattice
            continue
        rep = condition_report(wf.structure)
        if family == "k1":
            assert wf.structure.is_kleene
            assert rep.k1 and rep.k2 and rep.m2 and rep.m3
        elif family == "k2":
            assert wf.structure.is_kleene
            assert rep.m1 and rep.m2 and rep.m3
        else:
            assert rep.m1 and rep.m2 and rep.m3


def test_k2_layer_sizes():
    wf = witness_family("k2", 2)
    lower = [v for v in wf.structure.elements if not v.startswith("~")]
    fixed = [v for v in lower if wf.structure.i(v) == v]
    assert len(fixed) == 3
    assert len(lower) - len(fixed) == 8


def test_index_minimums():
    with pytest.raises(PreconditionError):
        witness_family("bdl", 0)
    with pytest.raises(PreconditionError):
        witness_family("k1", 1)
    with pytest.raises(PreconditionError):
        witness_family("m2", 2)  # even index would tie the threshold
    with pytest.raises(PreconditionError):
        witness_family("nope", 3)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_m2_from_covers_matches_the_vector_order(n):
    # T_n of m2 is the Boolean cube on n-bit vectors with d between its
    # bottom and top; the covers flip one 0 to 1
    t = witness_family("m2", n).structure
    cube = [v for v in t.elements if v != "d"]
    for u in cube:
        for v in cube:
            assert t.leq(u, v) == all(a <= b for a, b in zip(u, v))
    assert [x for x in t.elements if t.leq("0" * n, x) and t.leq(x, "d")] == ["0" * n, "d"]
    assert t.up_of(["d"]) == {"d", "1" * n}


IDENTITY_PATTERNS = {
    "bdl": {k: k for k in "xabcdy"},
    "k1": {k: k for k in "xabcdyz"},
    "k2": {k: k for k in "xabcdefyzw"},
    "m1": {k: k for k in "xabcdy"},
    "m2": {k: k for k in "xab"},
}


@pytest.mark.parametrize(
    "family,n,instance_key",
    [
        ("bdl", 5, None),
        ("k1", 4, "k1"),
        ("k2", 2, "k2"),
        ("m1", 4, "m1"),
        ("m2", 3, "m2"),
        ("m2", 1, "m2"),
    ],
)
def test_schema_instantiates_on_golden(family, n, instance_key, crown, pattern_instances):
    q = crown if instance_key is None else pattern_instances[instance_key]
    wf = witness_family(family, n)
    u = instantiate_witness(wf, IDENTITY_PATTERNS[family], q)
    u.check()
    assert len(u.dom.elements) == family_size(family, n)


def test_bdl_witness_refuses_an_involutive_instance(crown):
    # the crown with an antitone involution: the order alone accepts the
    # bdl schema, the involutive poset does not
    inv = dict(zip("xabcdy", "ydcbax"))
    wf = witness_family("bdl", 3)
    instantiate_witness(wf, IDENTITY_PATTERNS["bdl"], crown).check()
    with pytest.raises(PreconditionError, match="bdl witness needs a bare poset"):
        instantiate_witness(wf, IDENTITY_PATTERNS["bdl"], validate_involutive(crown, inv))


def test_witness_chain_is_increasingly_general(crown):
    # larger witnesses never factor through smaller ones the wrong way
    u3 = instantiate_witness(witness_family("bdl", 3), IDENTITY_PATTERNS["bdl"], crown)
    u5 = instantiate_witness(witness_family("bdl", 5), IDENTITY_PATTERNS["bdl"], crown)
    assert not more_general(u3, u5)


@pytest.mark.parametrize(
    "family,n,variety",
    [("bdl", 3, "bdl"), ("k1", 2, "kleene"), ("k2", 2, "kleene"),
     ("m1", 2, "demorgan"), ("m2", 3, "demorgan")],
)
def test_witnesses_classify_unitary_as_instances(family, n, variety):
    wf = witness_family(family, n)
    assert classify(wf.structure, variety).utype == "unitary"
