"""Acceptance suite: one test per exit criterion, each printing a
PASS line with its elapsed time (run with -s to see them)."""

import json
import time

from morgan_unify import (
    DIAMOND,
    MostGeneral,
    MuSet,
    NullPattern,
    build_retraction,
    canonical_embedding,
    classify,
    condition_report,
    demorgan_dual,
    demorgan_from_dual,
    enumerate_invposets_upto,
    enumerate_posets_upto,
    enumerate_unifiers_bounded,
    find_inv_isomorphism,
    find_isomorphism,
    instantiate_witness,
    is_projective_dual,
    is_solvable,
    join_irreducibles,
    kleene_part,
    lattice_report,
    more_general,
    oracle_retraction_search,
    power,
    validate_inv_morphism,
    verify_null_pattern,
    witness_family,
)
from morgan_unify import downset_algebra, validate_poset
from morgan_unify.cli import run_cli
from morgan_unify.gallery import (
    crown_poset,
    free_demorgan_one,
    k1_pattern_instance,
    k2_pattern_instance,
    m1_pattern_instance,
    m2_pattern_instance,
    m3_pattern_instance,
)
from morgan_unify.involutive import make_inv_morphism, make_invposet
from morgan_unify.unification import core_of

from reference import POSET_CLASS_COUNTS, bare, cube_embedding, oracle_poset_retraction


def report(criterion, started, budget_seconds, detail=""):
    elapsed = time.time() - started
    assert elapsed < budget_seconds, f"criterion {criterion} over budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


def run_cli_json(argv, capsys):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_free_object_reconstruction(capsys, monkeypatch):
    started = time.time()
    code, doc = run_cli_json(["free", "--variety", "dm", "--n", "1"], capsys)
    assert code == 0
    assert doc["elements"] == ["2", "0", "1", "3"]
    assert doc["inv"] == {"2": "3", "0": "0", "1": "1", "3": "2"}

    algebra = demorgan_from_dual(DIAMOND)
    assert len(algebra) == 6
    fm1 = free_demorgan_one()
    assert (
        find_inv_isomorphism(
            make_invposet(algebra.carrier, algebra.neg), make_invposet(fm1.carrier, fm1.neg)
        )
        is not None
    )

    code, doc = run_cli_json(["free", "--variety", "dm", "--n", "2"], capsys)
    assert len(doc["elements"]) == 16
    code, doc = run_cli_json(["free", "--variety", "kleene", "--n", "2"], capsys)
    assert len(doc["elements"]) == 14
    assert set(("23", "32")).isdisjoint(doc["elements"])
    report(1, started, 1, "free duals for dm n=1,2 and kleene n=2")


def test_criterion_2_duality_round_trips():
    started = time.time()
    posets = list(enumerate_posets_upto(5))
    assert len(posets) == sum(POSET_CLASS_COUNTS[:6])
    for p in posets:
        algebra = downset_algebra(p)
        assert find_isomorphism(join_irreducibles(algebra), p) is not None
        double = downset_algebra(join_irreducibles(algebra))
        assert find_isomorphism(algebra.carrier, double.carrier) is not None

    inv_count = 0
    for iv in enumerate_invposets_upto(4):
        inv_count += 1
        back = demorgan_dual(demorgan_from_dual(iv))
        assert find_inv_isomorphism(back, iv) is not None
    report(2, started, 120, f"{len(posets)} posets, {inv_count} involutive posets")


def test_criterion_3_projectivity_agreement():
    started = time.time()
    checked = 0
    for iv in enumerate_invposets_upto(4):
        if not iv.elements:
            assert not is_projective_dual(iv, "demorgan")[0]
            continue
        emb = canonical_embedding(iv, prune=True)
        decided = is_projective_dual(iv, "demorgan")[0]
        found = oracle_retraction_search(iv, embedding=emb, variety="demorgan")
        assert decided == (found is not None)
        checked += 1
        if iv.is_kleene:
            decided = is_projective_dual(iv, "kleene")[0]
            found = oracle_retraction_search(iv, embedding=emb, variety="kleene")
            assert decided == (found is not None)
            checked += 1
    for p in enumerate_posets_upto(4):
        if not p.elements:
            continue
        decided = is_projective_dual(p, "bdl")[0]
        found = oracle_poset_retraction(p, cube_embedding(p))
        assert decided == (found is not None)
        checked += 1
    report(3, started, 600, f"{checked} decider/oracle agreements")


def test_criterion_4_constructive_retractions():
    started = time.time()
    built = 0
    for iv in enumerate_invposets_upto(4):
        if not iv.elements:
            continue
        for variety in ("demorgan", "kleene"):
            if variety == "kleene" and not iv.is_kleene:
                continue
            if not is_projective_dual(iv, variety)[0]:
                continue
            n, vectors = canonical_embedding(iv)
            r = build_retraction(iv, variety, embedding=(n, vectors))
            ambient = power(DIAMOND, n)
            if variety == "kleene":
                ambient = kleene_part(ambient)
            validate_inv_morphism(ambient, iv, r)
            for x in iv.elements:
                assert r[vectors[x]] == x
            built += 1
    assert built > 0
    report(4, started, 60, f"{built} retractions built and verified")


def test_criterion_5_classification_goldens():
    started = time.time()
    assert classify(bare(DIAMOND), "bdl").utype == "unitary"

    antichain = classify(validate_poset(["a", "b"], []), "bdl")
    assert antichain.utype == "finitary"
    assert len(antichain.certificate.members) == 2

    crown = classify(crown_poset(), "bdl")
    assert crown.utype == "nullary"
    assert crown.certificate.family == "bdl"
    assert verify_null_pattern(crown_poset(), "bdl", crown.certificate.as_dict)

    # the inv-closed pattern figures; the shared Kleene/De Morgan shape
    # lands on the m1 family under the De Morgan case ladder because its
    # top interval already fails the lattice condition
    expectations = [
        (m1_pattern_instance(), "demorgan", "m1"),
        (m2_pattern_instance(), "demorgan", "m2"),
        (m3_pattern_instance(), "demorgan", "m1"),
        (k1_pattern_instance(), "kleene", "k1"),
        (k2_pattern_instance(), "kleene", "k2"),
    ]
    for instance, variety, family in expectations:
        result = classify(instance, variety)
        assert result.utype == "nullary"
        assert result.certificate.family == family
    report(5, started, 5, "crown, three De Morgan and two Kleene pattern instances")


def audit_certificate(q, variety, result):
    if result.utype == "unitary":
        assert isinstance(result.certificate, MostGeneral)
        dom = result.certificate.unifier.dom
        assert is_projective_dual(dom, variety)[0]
        return "unitary"
    if result.utype == "finitary":
        assert isinstance(result.certificate, MuSet)
        members = result.certificate.members
        for m in members:
            assert is_projective_dual(m.dom, variety)[0]
        for i, u in enumerate(members):
            for j, v in enumerate(members):
                if i != j:
                    assert not more_general(u, v)
        for u in enumerate_unifiers_bounded(q, variety, 4):
            assert any(more_general(m, u) for m in members)
        return "finitary"
    assert isinstance(result.certificate, NullPattern)
    target = result.core if result.core is not None else q
    assert verify_null_pattern(target, result.certificate.family, result.certificate.as_dict)
    return "nullary"


def test_criterion_6_certificate_audits_and_criterion_10():
    started = time.time()
    seen_types = set()
    audited = 0
    for p in enumerate_posets_upto(5):
        if not is_solvable(p, "bdl"):
            continue
        result = classify(p, "bdl")
        assert result.utype in ("unitary", "finitary", "nullary")
        seen_types.add(result.utype)
        audit_certificate(p, "bdl", result)
        audited += 1
    for iv in enumerate_invposets_upto(4):
        for variety in ("demorgan", "kleene"):
            if variety == "kleene" and not iv.is_kleene:
                continue
            if not is_solvable(iv, variety):
                continue
            result = classify(iv, variety)
            assert result.utype in ("unitary", "finitary", "nullary")
            seen_types.add(result.utype)
            audit_certificate(iv, variety, result)
            audited += 1
    # the nullary leg of the audit needs the pattern instances: the
    # smallest nullary instances have more than four points
    for q, variety in [
        (crown_poset(), "bdl"),
        (k1_pattern_instance(), "kleene"),
        (k2_pattern_instance(), "kleene"),
        (m1_pattern_instance(), "demorgan"),
        (m2_pattern_instance(), "demorgan"),
    ]:
        result = classify(q, variety)
        seen_types.add(audit_certificate(q, variety, result))
        audited += 1
    assert seen_types == {"unitary", "finitary", "nullary"}
    report(6, started, 1800, f"{audited} certificates audited (criterion 10 included)")


def test_criterion_7_core_lemma_executable_half():
    started = time.time()
    checked = 0
    for iv in enumerate_invposets_upto(4):
        for variety in ("demorgan", "kleene"):
            if variety == "kleene" and not iv.is_kleene:
                continue
            if not is_solvable(iv, variety):
                continue
            core = core_of(iv, variety)
            core_elements = frozenset(core.elements)
            for u in enumerate_unifiers_bounded(iv, variety, 4):
                assert u.image <= core_elements
                into_core = make_inv_morphism(u.dom, core, u.as_dict)
                into_core.check()
                checked += 1
    assert checked > 0
    report(7, started, 600, f"{checked} unifiers factored through their cores")


def test_criterion_8_witness_families():
    started = time.time()
    reference_sizes = {("bdl", 5): 13, ("k1", 4): 22, ("k2", 2): 19, ("m1", 3): 13, ("m2", 3): 9}
    ranges = {
        "bdl": range(1, 9),
        "k1": range(2, 7),
        "k2": range(2, 5),
        "m1": range(1, 7),
        "m2": (1, 3, 5, 7),
    }
    for family, ns in ranges.items():
        for n in ns:
            wf = witness_family(family, n)
            size = len(wf.structure.elements)
            if (family, n) in reference_sizes:
                assert size == reference_sizes[family, n]
            if family == "bdl":
                assert lattice_report(wf.structure).is_nonempty_lattice
            else:
                rep = condition_report(wf.structure)
                if family == "k1":
                    assert wf.structure.is_kleene and rep.k1 and rep.k2 and rep.m2 and rep.m3
                elif family == "k2":
                    assert wf.structure.is_kleene and rep.m1 and rep.m2 and rep.m3
                else:
                    assert rep.m1 and rep.m2 and rep.m3
    goldens = {
        "bdl": (crown_poset(), {k: k for k in "xabcdy"}),
        "k1": (k1_pattern_instance(), {k: k for k in "xabcdyz"}),
        "k2": (k2_pattern_instance(), {k: k for k in "xabcdefyzw"}),
        "m1": (m1_pattern_instance(), {k: k for k in "xabcdy"}),
        "m2": (m2_pattern_instance(), {k: k for k in "xab"}),
    }
    for family, ns in ranges.items():
        q, pattern = goldens[family]
        instantiate_witness(witness_family(family, min(ns)), pattern, q).check()
    report(8, started, 120, "families bdl, k1, k2, m1, m2 across their ranges")


def test_criterion_9_incompressibility_slices():
    started = time.time()
    slices = [
        ("bdl", 5, 4, crown_poset(), {k: k for k in "xabcdy"}, "bdl"),
        ("m1", 4, 3, m1_pattern_instance(), {k: k for k in "xabcdy"}, "demorgan"),
        ("k1", 4, 3, k1_pattern_instance(), {k: k for k in "xabcdyz"}, "kleene"),
    ]
    for family, n, bound, q, pattern, variety in slices:
        u_n = instantiate_witness(witness_family(family, n), pattern, q)
        offenders = [
            u for u in enumerate_unifiers_bounded(q, variety, bound)
            if more_general(u, u_n)
        ]
        assert offenders == []
    report(9, started, 1200, "no small unifier dominates u_n on any golden instance")
