"""Workload dual-decide: CLI projective, classify and retract --prune over
a fixed catalog of involutive posets.

The seed only shuffles the order of operations; the catalog is fixed.
Expected verdicts and exit codes are pinned in expected_dual.json, taken
at the commit that introduced this benchmark; the entries the theory
fixes (THEORY) are checked against that table at every set-up.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import CLI_VARIETY, Op, Workload, anchors_of, call_cli

EXPECTED = Path(__file__).with_name("expected_dual.json")

#: (item, command, variety) pairs left out of the catalog: each cost more
#: than about 1.5 s per op at the commit that introduced this benchmark.
DROPPED = {
    ("D^3", "retract", "demorgan"): "1.8 s (pruned embedding over 64 columns)",
    ("D^2xC_4", "retract", "demorgan"): "1.7 s",
    ("D^2xC_5", "retract", "demorgan"): "4.6 s (materialises D^4)",
    ("K(D^2xC_2)", "retract", "demorgan"): "4.3 s",
    ("K(D^2xC_2)", "retract", "kleene"): "3.9 s",
    ("K(D^2xC_3)", "retract", "demorgan"): "5.1 s",
    ("K(D^2xC_3)", "retract", "kleene"): "6.6-10.6 s (materialises D^6)",
    ("K(D^2xC_5)", "classify", "demorgan"): "1.6 s",
    ("D^3xC_2", "retract", "demorgan"): "23.7 s",
    ("k1xC_3", "retract", "demorgan"): "3.0 s",
    ("k1xD", "retract", "demorgan"): "3.9 s",
    ("k2", "retract", "demorgan"): "4.6 s",
    ("k2", "retract", "kleene"): "4.6 s",
    ("k2xD", "retract", "demorgan"): "2.1 s",
}

#: entries fixed by the theory, checked against the pinned table on load
THEORY = {
    ("D^1", "projective", "demorgan"): True,
    ("D^2", "projective", "demorgan"): True,
    ("D^3", "projective", "demorgan"): True,
    ("D^1", "projective", "kleene"): True,
    ("K(D^2)", "projective", "kleene"): True,
    ("K(D^3)", "projective", "kleene"): True,
    ("k1", "classify", "kleene"): ("nullary", "k1"),
    ("k2", "classify", "kleene"): ("nullary", "k2"),
    ("m1", "classify", "demorgan"): ("nullary", "m1"),
    ("m2", "classify", "demorgan"): ("nullary", "m2"),
    # the m3 gallery instance is the k2 structure; under the De Morgan case
    # ladder its top interval already fails m1
    ("k2", "classify", "demorgan"): ("nullary", "m1"),
}

COMMANDS = ("projective", "classify", "retract")
#: set-ups timed per run; each takes about 0.1 s
SETUPS = 11


def _chain(mu, k: int):
    """The k-chain with the order-reversing involution."""
    names = [f"c{i}" for i in range(k)]
    base = mu.validate_poset(names, list(zip(names, names[1:])))
    return mu.validate_involutive(base, {names[i]: names[k - 1 - i] for i in range(k)})


def catalog(lib) -> list[tuple[str, object]]:
    """The fixed item list, in catalog order.

    K(D^1) is D^1 itself and the m3 gallery instance is the k2 structure,
    so neither is listed twice.
    """
    mu, g = lib.mu, lib.gallery
    d = [None] + [mu.power(mu.DIAMOND, a) for a in (1, 2, 3)]
    items = [("D^1", d[1])]
    for a in (2, 3):
        items += [(f"D^{a}", d[a]), (f"K(D^{a})", mu.kleene_part(d[a]))]
    for a, ks in ((1, (3, 5, 9, 12)), (2, (2, 3, 4, 5)), (3, (2,))):
        for k in ks:
            p = mu.product(d[a], _chain(mu, k), sep=".")
            items += [(f"D^{a}xC_{k}", p), (f"K(D^{a}xC_{k})", mu.kleene_part(p))]
    for name in ("k1", "k2", "m1", "m2"):
        q = getattr(g, f"{name}_pattern_instance")()
        items += [
            (name, q),
            (f"{name}xC_3", mu.product(q, _chain(mu, 3), sep=".")),
            (f"{name}xD", mu.product(q, mu.DIAMOND, sep=".")),
        ]
    return items


def pairs(items):
    """(item name, structure, command, variety) for every catalog op."""
    for name, q in items:
        for variety in ("demorgan", "kleene") if q.is_kleene else ("demorgan",):
            for command in COMMANDS:
                if (name, command, variety) not in DROPPED:
                    yield name, q, command, variety


def key(name: str, command: str, variety: str) -> str:
    return f"{name} {command} {variety}"


def _argv(command: str, variety: str) -> list[str]:
    argv = [command, "-", "--variety", CLI_VARIETY[variety]]
    return argv + ["--prune"] if command == "retract" else argv


def verdict(command: str, code: int, doc: dict):
    """The part of a CLI result the pinned table records."""
    if code != 0:
        return None
    if command == "projective":
        return {"projective": doc["projective"], "conditions": doc["conditions"]}
    if command == "classify":
        cert = doc["certificate"]
        return {"type": doc["type"], "family": cert.get("family")}
    return {"n": doc["n"]}


def _check_certificate(lib, q, variety: str, doc: dict) -> str | None:
    mu = lib.mu
    cert = doc["certificate"]
    if doc["type"] == "nullary":
        core = mu.kleene_core(q) if variety == "kleene" else mu.demorgan_core(q)
        if not mu.verify_null_pattern(core, cert["family"], anchors_of(lib, cert)):
            return "nullary pattern fails on the core"
        return None
    members = [cert] if doc["type"] == "unitary" else cert["members"]
    for member in members:
        dom = lib.documents.parse_document(member["domain"])
        if not mu.is_projective_dual(dom, variety)[0]:
            return "certificate domain is not projective"
        mu.validate_inv_morphism(dom, q, member["map"])
    return None


def _check_retraction(lib, q, variety: str, doc: dict) -> str | None:
    mu = lib.mu
    ambient = mu.power(mu.DIAMOND, doc["n"])
    if variety == "kleene":
        ambient = mu.kleene_part(ambient)
    e = mu.validate_inv_morphism(q, ambient, doc["embedding"])
    r = mu.validate_inv_morphism(ambient, q, doc["retraction"])
    if any(r(e(x)) != x for x in q.elements):
        return "retraction does not fix the embedded image"
    return None


def build(lib, rng) -> Workload:
    expected = json.loads(EXPECTED.read_text())
    problems = []
    for (name, command, variety), want in THEORY.items():
        got = expected[key(name, command, variety)]["verdict"]
        ok = (
            got["projective"] is want
            if command == "projective"
            else (got["type"], got["family"]) == want
        )
        if not ok:
            problems.append(f"pinned table contradicts theory at {name} {command}")

    texts, items = {}, []
    for name, q in catalog(lib):
        texts[name] = json.dumps(lib.documents.structure_document(q))
        items.append((name, lib.documents.loads(texts[name])))
    ops = [
        _op(lib, name, q, texts[name], command, variety, expected)
        for name, q, command, variety in pairs(items)
    ]
    return Workload(ops=ops, warmup=ops[:1], problems=problems)


def _op(lib, name, q, text, command, variety, expected) -> Op:
    k = key(name, command, variety)
    argv = _argv(command, variety)
    cli = lib.cli
    want = expected.get(k)

    def run():
        return call_cli(cli, argv, text)

    def check(result) -> str | None:
        code, out = result
        if want is None:
            return "no pinned expectation"
        if code != want["code"]:
            return f"exit code {code}, expected {want['code']}"
        doc = json.loads(out)
        if verdict(command, code, doc) != want["verdict"]:
            return f"verdict {verdict(command, code, doc)}, expected {want['verdict']}"
        if code != 0:
            return None
        if command == "classify":
            return _check_certificate(lib, q, variety, doc)
        if command == "retract":
            return _check_retraction(lib, q, variety, doc)
        return None

    return Op(k, run, check)
