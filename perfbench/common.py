"""Pieces shared by the workloads: the operation record, the library
import, and an in-process CLI call with captured stdout."""

from __future__ import annotations

import importlib
import io
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

PACKAGE = "morgan_unify"

CLI_VARIETY = {"bdl": "bdl", "kleene": "kleene", "demorgan": "dm"}


@dataclass
class Op:
    """One operation class: `run` takes an input to a result inside the
    timed region; `check` returns None when the result is right, else a
    one-line reason.  `name` identifies the class across set-ups."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    problems: list[str] = field(default_factory=list)


def import_library() -> SimpleNamespace:
    mu = importlib.import_module(PACKAGE)
    return SimpleNamespace(
        mu=mu,
        cli=importlib.import_module(PACKAGE + ".cli"),
        documents=importlib.import_module(PACKAGE + ".documents"),
        gallery=importlib.import_module(PACKAGE + ".gallery"),
    )


def call_cli(cli, argv: list[str], text: str) -> tuple[int, str]:
    """Run the CLI in-process on `text` given as stdin ("-")."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return code, out


def anchors_of(lib, certificate: dict) -> dict[str, str]:
    """The anchors of a nullary certificate, named in the CLI's tuple order."""
    return dict(zip(lib.cli.ANCHOR_ORDER[certificate["family"]], certificate["tuple"]))
