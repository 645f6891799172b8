"""Workload big-orders: CLI classify --variety bdl and validate on bare
posets of 34-200 points.

Chains and grids are lattices, so unitary.  Layered posets with a bottom
and a top hold a bowtie (two points with two minimal upper bounds), so
the whole poset is an interval that is no lattice: nullary.  Layered
forests, where every point above the lowest layer covers exactly one
point, have only chains as intervals but no top or bottom: finitary,
with one mu-set member per comparable (minimal, maximal) pair.  The
layered posets are drawn from a fixed generator seed, so every run
decides the same inputs; the seed only shuffles the order of operations.
"""

from __future__ import annotations

import json
import random

from common import Op, Workload, anchors_of, call_cli

#: the generator seed of the layered posets
CATALOG_SEED = 1401
#: Many inputs of graded size, so that p50 and p90, taken over op classes,
#: rest on many classes.  No op takes much over half a second: the host's
#: speed changes within a second, faster than the references around one
#: long op can follow.
CHAINS = (34, 50, 70, 90, 110, 130, 150, 170, 200)
GRIDS = ((6, 6), (5, 10), (8, 8), (6, 14), (9, 10), (10, 12), (8, 16), (12, 14))
#: layer widths; with the bottom and the top, 34 to 74 points
BOUNDED = (
    (4,) * 8, (4,) * 10, (5,) * 10, (5,) * 10, (5,) * 12, (5,) * 14, (5,) * 14, (6,) * 12,
)
#: layer widths of the forests: 36 to 120 points
FORESTS = (
    (3,) * 12, (4,) * 12, (5,) * 12, (6,) * 12, (6,) * 16, (8,) * 13, (8,) * 15, (4,) * 20,
)
#: set-ups timed per run; each takes about 1.2 s
SETUPS = 3


def chain(mu, n: int):
    names = [f"c{i}" for i in range(n)]
    return mu.validate_poset(names, list(zip(names, names[1:])))


def grid(mu, a: int, b: int):
    """The product of an a-chain and a b-chain."""
    names = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(a - 1) for j in range(b)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(a) for j in range(b - 1)]
    return mu.validate_poset(names, covers)


def _layers(widths) -> list[list[str]]:
    return [[f"l{k}_{i}" for i in range(w)] for k, w in enumerate(widths)]


def bounded(mu, rng, widths):
    """Each point covers one or two points of the layer below; the two
    first points of layers 1 and 2 form a bowtie; a bottom below the
    lowest layer and a top above every point without an upper cover
    close the poset."""
    layers = _layers(widths)
    covers = {("bot", x) for x in layers[0]}
    for low, high in zip(layers, layers[1:]):
        for y in high:
            covers |= {(x, y) for x in rng.sample(low, rng.randint(1, 2))}
    covers |= {(x, y) for x in layers[1][:2] for y in layers[2][:2]}
    names = ["bot"] + [x for layer in layers for x in layer]
    covers |= {(x, "top") for x in names} - {(x, "top") for x, _ in covers}
    names.append("top")
    return mu.validate_poset(names, sorted(covers))


def forest(mu, rng, widths):
    """Each point above the lowest layer covers one point of the layer
    below."""
    layers = _layers(widths)
    covers = [(rng.choice(low), y) for low, high in zip(layers, layers[1:]) for y in high]
    return mu.validate_poset([x for layer in layers for x in layer], covers)


def catalog(mu) -> list[tuple[str, object, str]]:
    """(name, poset, expected bdl type) in catalog order."""
    rng = random.Random(CATALOG_SEED)
    items = [(f"chain{n}", chain(mu, n), "unitary") for n in CHAINS]
    items += [(f"grid{a}x{b}", grid(mu, a, b), "unitary") for a, b in GRIDS]
    for i, widths in enumerate(BOUNDED):
        q = bounded(mu, rng, widths)
        items.append((f"bounded{i}-{len(q.elements)}", q, "nullary"))
    for i, widths in enumerate(FORESTS):
        q = forest(mu, rng, widths)
        items.append((f"forest{i}-{len(q.elements)}", q, "finitary"))
    return items


def _same_order(p, q) -> bool:
    return set(p.elements) == set(q.elements) and all(
        p.leq(x, y) == q.leq(x, y) for x in p.elements for y in p.elements
    )


def _check_classify(lib, q, expected: str, doc: dict) -> str | None:
    mu = lib.mu
    if doc["type"] != expected:
        return f"type {doc['type']}, expected {expected}"
    cert = doc["certificate"]
    if expected == "nullary":
        if cert["family"] != "bdl" or not mu.verify_null_pattern(
            q, "bdl", anchors_of(lib, cert)
        ):
            return "nullary pattern fails"
        return None
    members = [cert] if expected == "unitary" else cert["members"]
    spans = set()
    for member in members:
        dom = lib.documents.parse_document(member["domain"])
        if not mu.is_projective_dual(dom, "bdl")[0]:
            return "certificate domain is not a lattice"
        mu.validate_monotone_map(dom, q, member["map"])
        if any(member["map"][z] != z for z in dom.elements):
            return "certificate map is not an inclusion"
        (low,), (high,) = dom.minimals(), dom.maximals()
        if set(dom.elements) != q.interval(low, high):
            return f"certificate domain is not the interval [{low}, {high}]"
        spans.add((low, high))
    if expected == "unitary":
        return None if spans == {(q.minimals()[0], q.maximals()[0])} else "not the identity"
    want = {(x, y) for x in q.minimals() for y in q.maximals() if q.leq(x, y)}
    return None if spans == want and len(members) == len(want) else "mu-set incomplete"


def build(lib, rng) -> Workload:
    ops = []
    for name, q, expected in catalog(lib.mu):
        text = json.dumps(lib.documents.structure_document(q))
        parsed = lib.documents.loads(text)
        ops.append(_op(lib, f"{name} classify", text, ["classify", "-", "--variety", "bdl"],
                       lambda doc, q=parsed, e=expected: _check_classify(lib, q, e, doc)))
        ops.append(_op(lib, f"{name} validate", text, ["validate", "-"],
                       lambda doc, q=parsed: _check_validate(lib, q, doc)))
    return Workload(ops=ops, warmup=ops[:1])


def _check_validate(lib, q, doc: dict) -> str | None:
    again = lib.documents.parse_document(doc)
    if not _same_order(q, again):
        return "validate changed the order"
    if lib.documents.structure_document(again) != doc:
        return "validate output does not round-trip"
    return None


def _op(lib, name, text, argv, check_doc) -> Op:
    cli = lib.cli

    def run():
        return call_cli(cli, argv, text)

    def check(result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        return check_doc(json.loads(out))

    return Op(name, run, check)
