import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morgan_unify import (
    DIAMOND,
    kleene_part,
    power,
    product,
    validate_involutive,
    validate_poset,
)
from morgan_unify.cli import build_parser, run_cli
from morgan_unify.gallery import m1_pattern_instance
from morgan_unify.documents import dumps, loads, structure_document
from morgan_unify.involutive import mirror_covers

from reference import reference_dumps
from strategies import json_trees, json_values, near_documents, reversed_chain

GOLDENS = [
    "diamond.json",
    "crown.json",
    "empty.json",
    "antichain2.json",
    "antichain2_swap.json",
    "fm1.json",
    "k1_pattern.json",
    "k2_pattern.json",
    "m1_pattern.json",
    "m2_pattern.json",
]


#: the retraction oracle's output per involutive golden and variety,
#: recorded before its search was rewritten.  Left out: k1_pattern.json
#: and k2_pattern.json, whose embeddings exceed the oracle's dimension
#: guard, and m1_pattern.json under dm, whose search runs for minutes.
PINNED_ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "oracle_retractions.json").read_text(
        encoding="utf-8"
    )
)


#: stdout and exit code of embed and retract on every involutive golden
#: and on four catalog products, recorded while both still built the
#: power of DIAMOND they map into
RETRACT_OUTPUTS = json.loads(
    (pathlib.Path(__file__).parent / "retract_outputs.json").read_text(
        encoding="utf-8"
    )
)


CATALOG = {
    "D^1xC_9": lambda: product(DIAMOND, reversed_chain(9), sep="."),
    "K(D^1xC_5)": lambda: kleene_part(product(DIAMOND, reversed_chain(5), sep=".")),
    "m1xD": lambda: product(m1_pattern_instance(), DIAMOND, sep="."),
    "K(D^3xC_2)": lambda: kleene_part(
        product(power(DIAMOND, 3), reversed_chain(2), sep=".")
    ),
}


@pytest.fixture()
def cli(capsys, monkeypatch):
    def invoke(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = run_cli(argv)
        out = capsys.readouterr().out
        return code, out

    return invoke


class TestGoldens:
    @pytest.mark.parametrize("name", GOLDENS)
    def test_round_trip_byte_identical(self, name, data_dir):
        text = (data_dir / name).read_text(encoding="utf-8")
        assert dumps(structure_document(loads(text))) == text

    @pytest.mark.parametrize("name", GOLDENS)
    def test_validate_echoes_canonical_form(self, name, data_dir, cli):
        code, out = cli(["validate", str(data_dir / name)])
        assert code == 0
        assert out == (data_dir / name).read_text(encoding="utf-8")


class TestDumpsAgainstReference:
    """The hand-indenting writer prints what the stdlib's indenting
    encoder prints."""

    def test_every_golden(self, data_dir):
        paths = sorted(data_dir.glob("*.json"))
        assert len(paths) == len(GOLDENS)
        for path in paths:
            data = json.loads(path.read_text(encoding="utf-8"))
            assert dumps(data) == reference_dumps(data)

    def test_pinned_cli_output(self):
        for pinned in RETRACT_OUTPUTS.values():
            data = json.loads(pinned["stdout"])
            assert dumps(data) == reference_dumps(data)

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    def test_arbitrary_values(self, value):
        assert dumps(value) == reference_dumps(value)

    def test_classify_leaves_no_reference_cycle(self, data_dir, cli):
        # the stdlib's indenting encoder left 33 objects per printed
        # document that only the cycle collector frees
        argv = ["classify", str(data_dir / "diamond.json"), "--variety", "dm"]
        cli(argv)
        gc.collect()
        gc.disable()
        try:
            code, out = cli(argv)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert code == 0 and json.loads(out)["type"] == "unitary"


class TestClassifyCommand:
    def test_crown_matches_reference_output(self, data_dir, cli):
        code, out = cli(["classify", str(data_dir / "crown.json"), "--variety", "bdl"])
        assert code == 0
        assert json.loads(out) == {
            "solvable": True,
            "type": "nullary",
            "certificate": {"family": "bdl", "tuple": ["x", "a", "b", "c", "d", "y"]},
        }

    def test_empty_is_unsolvable_exit_two(self, data_dir, cli):
        code, out = cli(["classify", str(data_dir / "empty.json"), "--variety", "bdl"])
        assert code == 2
        assert json.loads(out) == {"solvable": False}

    def test_kleene_on_non_kleene_exit_three(self, data_dir, cli):
        code, out = cli(
            ["classify", str(data_dir / "antichain2_swap.json"), "--variety", "kleene"]
        )
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "name,variety,expected_type,family",
        [
            ("k1_pattern.json", "kleene", "nullary", "k1"),
            ("k2_pattern.json", "kleene", "nullary", "k2"),
            ("m1_pattern.json", "dm", "nullary", "m1"),
            ("m2_pattern.json", "dm", "nullary", "m2"),
            ("diamond.json", "dm", "unitary", None),
        ],
    )
    def test_pattern_goldens(self, name, variety, expected_type, family, data_dir, cli):
        code, out = cli(["classify", str(data_dir / name), "--variety", variety])
        assert code == 0
        report = json.loads(out)
        assert report["type"] == expected_type
        if family is not None:
            assert report["certificate"]["family"] == family


class TestFreeCommand:
    def test_dm_one_is_diamond(self, cli, data_dir):
        code, out = cli(["free", "--variety", "dm", "--n", "1"])
        assert code == 0
        assert out == (data_dir / "diamond.json").read_text(encoding="utf-8")

    def test_dm_two_has_sixteen_points(self, cli):
        code, out = cli(["free", "--variety", "dm", "--n", "2"])
        assert code == 0
        assert len(json.loads(out)["elements"]) == 16

    def test_kleene_two_drops_the_incomparable_pair(self, cli):
        code, out = cli(["free", "--variety", "kleene", "--n", "2"])
        elements = json.loads(out)["elements"]
        assert len(elements) == 14
        assert "23" not in elements and "32" not in elements

    def test_cap_exceeded_exit_four(self, cli):
        code, out = cli(["free", "--variety", "dm", "--n", "9"])
        assert code == 4


class TestOtherCommands:
    def test_dualize_fm1_to_dual(self, data_dir, cli):
        code, out = cli(["dualize", str(data_dir / "fm1.json"), "--direction", "to-dual"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "invposet" and len(doc["elements"]) == 4

    def test_dualize_diamond_to_algebra(self, data_dir, cli):
        code, out = cli(
            ["dualize", str(data_dir / "diamond.json"), "--direction", "to-algebra"]
        )
        doc = json.loads(out)
        assert doc["kind"] == "algebra" and len(doc["elements"]) == 6

    @pytest.mark.parametrize("kind", ["poset", "invposet"])
    def test_dualize_to_algebra_refuses_too_many_downsets(self, kind, cli):
        # a 40-point antichain has 2^40 down-sets; the walk stops past 4,096
        names = [f"a{k}" for k in range(40)]
        doc = {"kind": kind, "elements": names, "covers": []}
        if kind == "invposet":
            doc["inv"] = {x: names[39 - k] for k, x in enumerate(names)}
        argv = ["dualize", "-", "--direction", "to-algebra"]
        code, out = cli(argv, stdin_text=json.dumps(doc))
        assert code == 4
        assert json.loads(out) == {"error": "down-set guard: more than 4096 down-sets"}

    def test_projective_report_carries_witnesses(self, data_dir, cli):
        code, out = cli(
            ["projective", str(data_dir / "antichain2_swap.json"), "--variety", "dm"]
        )
        report = json.loads(out)
        assert code == 0 and report["projective"] is False
        assert report["witnesses"]["m1"] == ["a", "b"]

    @pytest.mark.parametrize(
        "name, witness",
        [("k1_pattern.json", ["a", "b"]), ("k2_pattern.json", ["a", "b", "c"])],
    )
    def test_projective_m3_witness(self, name, witness, data_dir, cli):
        # the first bounded pair without a join, else the first
        # pairwise-bounded triple without an upper bound
        code, out = cli(["projective", str(data_dir / name), "--variety", "kleene"])
        report = json.loads(out)
        assert code == 0 and report["conditions"]["m3"] is False
        assert report["witnesses"]["m3"] == witness

    def test_core_command(self, data_dir, cli):
        code, out = cli(["core", str(data_dir / "k2_pattern.json"), "--variety", "kleene"])
        assert code == 0
        assert len(json.loads(out)["elements"]) == 17

    def test_embed_prune_identity(self, data_dir, cli):
        code, out = cli(["embed", str(data_dir / "diamond.json"), "--prune"])
        doc = json.loads(out)
        assert doc == {"n": 1, "map": {"2": "2", "0": "0", "1": "1", "3": "3"}}

    def test_retract_non_projective_exit_three(self, data_dir, cli):
        code, out = cli(
            ["retract", str(data_dir / "antichain2_swap.json"), "--variety", "dm"]
        )
        assert code == 3

    def test_retract_diamond(self, data_dir, cli):
        code, out = cli(
            ["retract", str(data_dir / "diamond.json"), "--variety", "dm", "--prune"]
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["n"] == 1
        assert doc["retraction"] == {x: x for x in "2013"}

    def test_oracle_retraction(self, data_dir, cli):
        code, out = cli(
            ["oracle", str(data_dir / "diamond.json"), "--check", "retraction"]
        )
        assert code == 0
        assert json.loads(out)["found"] is True

    @pytest.mark.parametrize("case", sorted(PINNED_ORACLE))
    def test_oracle_retraction_pinned(self, case, data_dir, cli):
        name, variety = case.split()
        code, out = cli(
            ["oracle", str(data_dir / name), "--check", "retraction",
             "--variety", variety]
        )
        assert code == PINNED_ORACLE[case]["exit"]
        assert json.loads(out) == PINNED_ORACLE[case]["stdout"]

    def test_oracle_guard_comes_before_the_ambient(self, data_dir, cli, monkeypatch):
        # k2_pattern's pruned embedding has dimension 6; D^6 has 4096 points
        from morgan_unify import involutive, projectivity

        built = []

        def power(p, n, sep=""):
            built.append(n)
            assert n <= 4, f"power(_, {n}) built past the oracle's guard"
            return involutive.power(p, n, sep)

        monkeypatch.setattr(projectivity, "power", power)
        code, out = cli(
            ["oracle", str(data_dir / "k2_pattern.json"), "--check", "retraction"]
        )
        assert code == 4
        assert json.loads(out) == {
            "error": "oracle guard: embedding dimension 6 exceeds 4"
        }
        assert built == []

    def test_oracle_refuses_more_points_than_d4_before_pruning(self, cli, monkeypatch):
        # D^5's 1,024 points are more than any map into D^4 separates;
        # pruning its embedding first would take about half a minute
        from morgan_unify import projectivity

        def columns(p, prune):
            raise AssertionError("pruned an input the oracle refuses by size")

        monkeypatch.setattr(projectivity, "_columns", columns)
        text = dumps(structure_document(power(DIAMOND, 5)))
        code, out = cli(["oracle", "-", "--check", "retraction"], stdin_text=text)
        assert code == 4
        assert json.loads(out) == {
            "error": "oracle guard: 1024 points exceed the 256 of D^4"
        }

    def test_oracle_node_budget(self, data_dir, cli):
        # m1_pattern's pruned embedding has dimension 4, within the guard,
        # but the search under dm runs for minutes without its budget
        started = time.perf_counter()
        code, out = cli(
            ["oracle", str(data_dir / "m1_pattern.json"), "--check", "retraction"]
        )
        assert time.perf_counter() - started < 5
        assert code == 4
        assert json.loads(out) == {"error": "search exceeded its budget of 20000 nodes"}

    def test_oracle_unifier_count(self, data_dir, cli):
        code, out = cli(
            ["oracle", str(data_dir / "antichain2.json"), "--check", "unifiers",
             "--bound", "1"]
        )
        assert json.loads(out)["count"] == 2

    @pytest.mark.parametrize(
        "name, variety", [("m1_pattern.json", "demorgan"), ("diamond.json", "kleene")]
    )
    def test_oracle_unifiers_default_variety(self, name, variety, data_dir, cli):
        # an involutive document is a poset too; its default is not bdl
        code, out = cli(
            ["oracle", str(data_dir / name), "--check", "unifiers", "--bound", "1"]
        )
        assert code == 0 and json.loads(out)["variety"] == variety

    def test_classify_bdl_refuses_an_invposet(self, data_dir, cli):
        code, out = cli(["classify", str(data_dir / "diamond.json"), "--variety", "bdl"])
        assert code == 3
        assert json.loads(out) == {"error": "bdl instances are bare posets"}

    @pytest.mark.parametrize("family, cap", [("bdl", 160), ("k1", 80), ("k2", 30), ("m1", 80), ("m2", 11)])
    def test_witness_refuses_n_past_its_cap(self, family, cap, cli):
        code, out = cli(["witness", "--family", family, "--n", str(cap + 2)])
        assert code == 4
        assert json.loads(out) == {
            "error": f"witness guard: family {family!r} needs n <= {cap}"
        }

    def test_witness_with_anchors(self, cli):
        code, out = cli(["witness", "--family", "bdl", "--n", "5", "--anchors"])
        doc = json.loads(out)
        assert len(doc["elements"]) == 13
        assert doc["anchors"]["bot"] == "x"

    def test_malformed_document_exit_one(self, tmp_path, cli):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "poset", "elements": ["a", "a"]}')
        code, out = cli(["validate", str(bad)])
        assert code == 1
        assert "duplicate" in json.loads(out)["error"]

    def test_missing_file_exit_one(self, cli):
        code, _ = cli(["validate", "no-such-file.json"])
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "invposet", "elements": ["a"], "inv": {"a": ["x"]}}',
            '{"kind": "poset", "elements": ["a", "b"], "covers": [["a", ["b"]]]}',
            '{"kind": "algebra", "elements": ["a"], "neg": {"a": ["a"]}}',
            None,
        ],
        ids=["list-in-inv", "list-in-covers", "list-in-neg", "directory"],
    )
    def test_malformed_input_exit_one(self, text, tmp_path, cli):
        path = tmp_path
        if text is not None:
            path = tmp_path / "bad.json"
            path.write_text(text)
        code, out = cli(["validate", str(path)])
        assert code == 1
        assert "error" in json.loads(out)


class TestPipelines:
    @pytest.mark.parametrize(
        "family,n,variety",
        [("bdl", 4, "bdl"), ("k1", 2, "kleene"), ("k2", 2, "kleene"),
         ("m1", 2, "dm"), ("m2", 3, "dm")],
    )
    def test_witness_into_classify_is_unitary(self, family, n, variety, cli):
        _, doc = cli(["witness", "--family", family, "--n", str(n)])
        code, out = cli(["classify", "-", "--variety", variety], stdin_text=doc)
        assert code == 0
        assert json.loads(out)["type"] == "unitary"


@pytest.mark.parametrize("case", list(RETRACT_OUTPUTS))
def test_embed_and_retract_pinned_without_a_power(case, data_dir, cli, monkeypatch):
    # byte-identical output, and no power or product of involutive posets
    # built on the way
    import morgan_unify
    from morgan_unify import cli as cli_module, involutive, projectivity

    target, command, *rest = case.split()
    if target in CATALOG:
        source, text = "-", dumps(structure_document(CATALOG[target]()))
    else:
        source, text = str(data_dir / target), None
    argv = [command, source]
    if command == "retract":
        argv += ["--variety", rest.pop(0)]

    def refuse(*args, **kwargs):
        raise AssertionError("a power of DIAMOND was built")

    for module in (morgan_unify, cli_module, involutive, projectivity):
        for name in ("power", "product"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out = cli(argv + rest, text)
    assert (code, out) == (RETRACT_OUTPUTS[case]["exit"], RETRACT_OUTPUTS[case]["stdout"])


class TestParser:
    SEQUENCE = [
        ["retract", "diamond.json", "--variety", "dm", "--prune"],
        ["embed", "diamond.json"],
        ["oracle", "antichain2.json", "--check", "unifiers", "--bound", "1"],
        ["oracle", "antichain2.json", "--check", "unifiers"],
        ["classify", "crown.json", "--variety", "bdl"],
        ["projective", "antichain2_swap.json", "--variety", "dm"],
        ["free", "--variety", "kleene", "--n", "1"],
    ]

    def test_reused_parser_matches_a_fresh_one(self, data_dir, cli, capsys):
        for argv in self.SEQUENCE:
            argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
            got = cli(argv)
            args = build_parser().parse_args(argv)
            code = args.fn(args)
            assert got == (code, capsys.readouterr().out)

    @pytest.mark.parametrize(
        "argv",
        [[], ["nope"], ["embed"], ["retract", "x.json"], ["free", "--variety", "dm", "--n", "two"]],
    )
    def test_usage_error_exits_two(self, argv, cli, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "usage: morgan-unify" in capsys.readouterr().err
        assert cli(["free", "--variety", "dm", "--n", "0"])[0] == 0


def _run_on_stdin(argv, text):
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run_cli(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


#: every subcommand that reads a document, with its options
FILE_COMMANDS = (
    [["validate"]]
    + [[cmd, "--variety", v] for cmd in ("classify", "projective") for v in ("bdl", "kleene", "dm")]
    + [["core", "--variety", v] for v in ("kleene", "dm")]
    + [["embed"], ["embed", "--prune"]]
    + [["retract", "--variety", v, "--prune"] for v in ("kleene", "dm")]
    + [["dualize", "--direction", d] for d in ("to-dual", "to-algebra")]
    + [["oracle", "--check", "retraction"], ["oracle", "--check", "retraction", "--variety", "dm"]]
    + [["oracle", "--check", "unifiers", "--bound", b] for b in ("-1", "0", "2")]
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a file of bytes that are not UTF-8."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "latin1.json").write_bytes(b'{"kind": "poset", "elements": ["\xe9"]}')
    return root


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # three draws in four are near-valid documents, which get past parsing
    value=st.one_of(json_values, near_documents(), near_documents(), near_documents()),
    command=st.sampled_from(FILE_COMMANDS),
    # the document goes to stdin; a path source reads no document
    source=st.sampled_from(["-", "-", "-", "no-such-file.json", ".", "latin1.json"]),
)
def test_any_json_document_ends_in_a_documented_exit(fuzz_dir, value, command, source):
    path = source if source == "-" else str(fuzz_dir / source)
    code, out = _run_on_stdin([command[0], path, *command[1:]], json.dumps(value))
    assert code in range(5)
    assert isinstance(json.loads(out), dict)
    if source != "-":
        assert code == 1


def test_non_utf8_file_exits_one(fuzz_dir, cli):
    code, out = cli(["classify", str(fuzz_dir / "latin1.json"), "--variety", "bdl"])
    assert code == 1
    assert json.loads(out) == {"error": "input is not UTF-8 text", "witness": None}


def test_non_utf8_stdin_exits_one():
    # UTF-8 mode reads stdin with surrogateescape, as the C locale does
    proc = subprocess.run(
        [sys.executable, "-m", "morgan_unify.cli", "validate", "-"],
        input=b'{"kind": "poset", "elements": ["\xe9"]}',
        capture_output=True,
        env={**os.environ, "PYTHONUTF8": "1"},
    )
    assert proc.returncode == 1
    assert "UTF-8" in json.loads(proc.stdout)["error"]
    assert proc.stderr == b""


def test_projective_bdl_on_an_algebra_exits_three():
    code, out = _run_on_stdin(
        ["projective", "-", "--variety", "bdl"], '{"kind": "algebra", "elements": ["a"]}'
    )
    assert code == 3
    assert json.loads(out) == {"error": "variety 'bdl' needs a poset"}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "morgan_unify.cli", "free", "--variety", "dm", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "invposet"


def test_pattern_certificate_independent_of_hash_seed(tmp_path):
    # the k1 instance with a second fixed point u above c: the certificate
    # names y, the first such point in element order, under every seed
    lower = [
        ("x", "a"), ("x", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
        ("c", "y"), ("c", "u"), ("d", "z"),
    ]
    inv = {v: v for v in "yuz"}
    for v in "xabcd":
        inv[v], inv["~" + v] = "~" + v, v
    elements = ["x", "a", "b", "c", "d", "y", "u", "z", "~d", "~c", "~b", "~a", "~x"]
    q = validate_involutive(validate_poset(elements, mirror_covers(lower, inv)), inv)
    path = tmp_path / "k1_two_fixed.json"
    path.write_text(dumps(structure_document(q)), encoding="utf-8")
    outputs = set()
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-m", "morgan_unify.cli", "classify", str(path), "--variety", "kleene"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    cert = json.loads(outputs.pop())["certificate"]
    assert cert == {"family": "k1", "tuple": ["x", "a", "b", "c", "d", "y", "z"]}


@pytest.mark.parametrize(
    "doc, witness",
    [
        (
            {"kind": "poset", "elements": ["a", "b", "c", "d"],
             "covers": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]},
            ["a", "b"],
        ),
        (
            {"kind": "poset", "elements": ["a", "b", "c", "d", "e"],
             "le": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "e"]]},
            ["a", "b", "d"],
        ),
    ],
    ids=["cycle", "le_gap"],
)
def test_validation_witness_independent_of_hash_seed(doc, witness, tmp_path):
    # the 4-cycle fails antisymmetry, the le relation transitivity; each
    # witness takes its points in element order under every seed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outputs = set()
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-m", "morgan_unify.cli", "validate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 1
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["witness"] == witness


@pytest.mark.parametrize(
    "variety, failures",
    [
        ("kleene", 'm3 fails at ["a", "b", "c"]'),
        ("dm", 'm1 fails at ["a", "b"]; m3 fails at ["a", "b", "c"]'),
    ],
)
def test_retract_refusal_independent_of_hash_seed(variety, failures, data_dir):
    # the k2 shape is not projective; the refusal names the conditions the
    # variety needs that fail, each witness as `projective` prints it
    outputs = set()
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-m", "morgan_unify.cli", "retract",
             str(data_dir / "k2_pattern.json"), "--variety", variety, "--prune"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.returncode == 3
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    name = "demorgan" if variety == "dm" else variety
    assert json.loads(outputs.pop()) == {
        "error": f"input is not projective for {name}: {failures}"
    }
