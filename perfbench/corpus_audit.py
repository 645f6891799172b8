"""Workload corpus-audit: every poset class of at most 6 points under bdl,
every involutive poset class of at most 6 points under dm, and the
Kleene ones under kleene.

One op is one class under one variety: CLI classify, then the
certificate audit of acceptance criterion 6 (unifier bound 4) on the
printed certificate, and for classes of at most 4 points the decider
against the brute-force retraction search.  Set-up enumerates the
corpus.  The seed only shuffles the order of operations.
"""

from __future__ import annotations

import json
from collections import Counter

from common import CLI_VARIETY, Op, Workload, anchors_of, call_cli

MAX_POINTS = 6
AUDIT_BOUND = 4
ORACLE_MAX_POINTS = 4
#: isomorphism classes of posets by size (OEIS A000112)
POSET_CLASSES = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
INVOLUTIVE_CLASSES = 124
KLEENE_CLASSES = 61
#: set-up also runs the ops on 2-point classes, which reach the finitary
#: audit once per variety and so fill the library's projective-domain cache
WARMUP_POINTS = 2
#: set-ups timed per run; each takes about 1.2 s
SETUPS = 3


def _unifier(lib, q, variety: str, member: dict):
    dom = lib.documents.parse_document(member["domain"])
    if variety == "bdl":
        return lib.mu.validate_monotone_map(dom, q, member["map"])
    return lib.mu.validate_inv_morphism(dom, q, member["map"])


def audit(lib, q, variety: str, code: int, out: str) -> str:
    """Criterion 6 on the CLI's certificate: the verdict's type, or the
    first failing step."""
    mu = lib.mu
    if code == 2:
        return "unsolvable"
    doc = json.loads(out)
    utype, cert = doc["type"], doc["certificate"]
    if utype == "nullary":
        target = q
        if variety == "kleene":
            target = mu.kleene_core(q)
        elif variety == "demorgan":
            target = mu.demorgan_core(q)
        ok = mu.verify_null_pattern(target, cert["family"], anchors_of(lib, cert))
        return utype if ok else "nullary pattern fails"
    members = [_unifier(lib, q, variety, m) for m in (
        [cert] if utype == "unitary" else cert["members"]
    )]
    if not all(mu.is_projective_dual(m.dom, variety)[0] for m in members):
        return "certificate domain not projective"
    if utype == "unitary":
        return utype
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            if i != j and mu.more_general(u, v):
                return "mu-set members comparable"
    for u in mu.enumerate_unifiers_bounded(q, variety, AUDIT_BOUND):
        if not any(mu.more_general(m, u) for m in members):
            return "unifier not covered by the mu-set"
    return utype


def oracle(lib, q, variety: str):
    """(decider verdict, retraction found) for small involutive classes."""
    if variety == "bdl" or not 1 <= len(q.elements) <= ORACLE_MAX_POINTS:
        return None
    mu = lib.mu
    emb = mu.canonical_embedding(q, prune=True)
    found = mu.oracle_retraction_search(q, embedding=emb, variety=variety)
    return mu.is_projective_dual(q, variety)[0], found is not None


def build(lib, rng) -> Workload:
    mu = lib.mu
    posets = list(mu.enumerate_posets_upto(MAX_POINTS))
    involutive = list(mu.enumerate_invposets_upto(MAX_POINTS, poset_classes=posets))
    problems = []
    if Counter(len(p.elements) for p in posets) != POSET_CLASSES:
        problems.append("poset class counts differ from A000112")
    kleene = sum(1 for iv in involutive if iv.is_kleene)
    if (len(involutive), kleene) != (INVOLUTIVE_CLASSES, KLEENE_CLASSES):
        problems.append(f"{len(involutive)} involutive classes, {kleene} Kleene")

    cases = [(f"poset{i}", p, "bdl") for i, p in enumerate(posets)]
    for i, iv in enumerate(involutive):
        cases.append((f"inv{i}", iv, "demorgan"))
        if iv.is_kleene:
            cases.append((f"inv{i}", iv, "kleene"))
    ops, warmup = [], []
    for name, structure, variety in cases:
        text = json.dumps(lib.documents.structure_document(structure))
        op = _op(lib, f"{name} {variety}", lib.documents.loads(text), text, variety)
        ops.append(op)
        if len(structure.elements) == WARMUP_POINTS:
            warmup.append(op)
    return Workload(ops=ops, warmup=warmup, problems=problems)


def _op(lib, name, q, text, variety) -> Op:
    argv = ["classify", "-", "--variety", CLI_VARIETY[variety]]
    solvable = bool(q.elements) if variety == "bdl" else any(
        q.i(x) == x for x in q.elements
    )

    def run():
        code, out = call_cli(lib.cli, argv, text)
        return code, out, audit(lib, q, variety, code, out), oracle(lib, q, variety)

    def check(result) -> str | None:
        code, _, verdict, agreement = result
        if code != (0 if solvable else 2):
            return f"exit code {code}"
        if verdict not in ("unitary", "finitary", "nullary", "unsolvable"):
            return verdict
        if agreement is not None and agreement[0] != agreement[1]:
            return f"decider says {agreement[0]}, oracle says {agreement[1]}"
        return None

    return Op(name, run, check)
