"""Command-line interface.

Subcommands operate on JSON structure documents and print JSON results.
Exit codes: 0 success, 1 malformed input, 2 unsolvable instance for
classify, 3 precondition violation, 4 size guard exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from .algebra import FiniteAlgebra, TAG_DEMORGAN
from .documents import dumps, jsonable, loads, structure_document
from .duality import demorgan_dual, demorgan_from_dual, downset_algebra, join_irreducibles
from .errors import PreconditionError, SizeGuardError, ValidationError
from .involutive import DIAMOND, InvPoset, kleene_part, power
from .order import Poset
from .projectivity import (
    canonical_embedding,
    is_projective_dual,
    oracle_retraction_search,
    build_retraction,
)
from .unification import (
    MostGeneral,
    MuSet,
    NullPattern,
    PATTERNS,
    classify,
    core_of,
    enumerate_unifiers_bounded,
    witness_family,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_UNSOLVABLE = 2
EXIT_PRECONDITION = 3
EXIT_GUARD = 4

FREE_CAP = 3

VARIETY_ALIASES = {"bdl": "bdl", "kleene": "kleene", "dm": "demorgan"}

ANCHOR_ORDER = {family: tuple(p.anchors) for family, p in PATTERNS.items()}


def _read_structure(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        # stdin may carry undecodable bytes as surrogates, which fail here
        text.encode("utf-8")
    except UnicodeError:
        raise ValidationError("input is not UTF-8 text") from None
    return loads(text)


def _emit(data: dict[str, Any]) -> None:
    sys.stdout.write(dumps(data))


def _morphism_json(u) -> dict[str, Any]:
    return {
        "domain": structure_document(u.dom),
        "map": {x: u(x) for x in u.dom.elements},
    }


def _certificate_json(cert) -> dict[str, Any]:
    if isinstance(cert, MostGeneral):
        return {"kind": "most-general", **_morphism_json(cert.unifier)}
    if isinstance(cert, MuSet):
        return {
            "kind": "mu-set",
            "members": [_morphism_json(m) for m in cert.members],
        }
    assert isinstance(cert, NullPattern)
    anchors = cert.as_dict
    return {
        "family": cert.family,
        "tuple": [anchors[name] for name in ANCHOR_ORDER[cert.family]],
    }


def _resolve_variety(raw: str) -> str:
    if raw not in VARIETY_ALIASES:
        raise PreconditionError(f"unknown variety {raw!r}")
    return VARIETY_ALIASES[raw]


def _default_variety(structure) -> str:
    if isinstance(structure, InvPoset):
        return "kleene" if structure.is_kleene else "demorgan"
    if isinstance(structure, Poset):
        return "bdl"
    raise PreconditionError("algebras have no default variety; dualize first")


def cmd_validate(args) -> int:
    _emit(structure_document(_read_structure(args.file)))
    return EXIT_OK


def cmd_dualize(args) -> int:
    s = _read_structure(args.file)
    if args.direction == "to-dual":
        if not isinstance(s, FiniteAlgebra):
            raise PreconditionError("to-dual needs an algebra document")
        dual = (
            demorgan_dual(s)
            if TAG_DEMORGAN in s.variety_tags and s.neg is not None
            else join_irreducibles(s)
        )
        _emit(structure_document(dual))
    else:
        if isinstance(s, InvPoset):
            _emit(structure_document(demorgan_from_dual(s)))
        elif isinstance(s, Poset):
            _emit(structure_document(downset_algebra(s)))
        else:
            raise PreconditionError("to-algebra needs a poset or invposet document")
    return EXIT_OK


def cmd_free(args) -> int:
    if args.n < 0 or args.n > FREE_CAP:
        raise SizeGuardError(f"free object exponent {args.n} outside 0..{FREE_CAP}")
    dual = power(DIAMOND, args.n)
    if args.variety == "kleene":
        dual = kleene_part(dual)
    _emit(structure_document(dual))
    return EXIT_OK


def cmd_projective(args) -> int:
    s = _read_structure(args.file)
    variety = _resolve_variety(args.variety)
    ok, report = is_projective_dual(s, variety)
    _emit(
        {
            "projective": ok,
            "variety": args.variety,
            "conditions": {
                "m1": report.m1,
                "m2": report.m2,
                "m3": report.m3,
                "k1": report.k1,
                "k2": report.k2,
            },
            "witnesses": {k: jsonable(v) for k, v in report.witnesses.items()},
        }
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    s = _read_structure(args.file)
    variety = _resolve_variety(args.variety)
    result = classify(s, variety)
    if not result.solvable:
        _emit({"solvable": False})
        return EXIT_UNSOLVABLE
    _emit(
        {
            "solvable": True,
            "type": result.utype,
            "certificate": _certificate_json(result.certificate),
        }
    )
    return EXIT_OK


def cmd_core(args) -> int:
    s = _read_structure(args.file)
    variety = _resolve_variety(args.variety)
    if variety == "bdl":
        raise PreconditionError("cores exist for kleene and dm only")
    if not isinstance(s, InvPoset):
        raise PreconditionError("core needs an invposet document")
    _emit(structure_document(core_of(s, variety)))
    return EXIT_OK


def cmd_witness(args) -> int:
    wf = witness_family(args.family, args.n)
    doc = structure_document(wf.structure)
    if args.anchors:
        doc["anchors"] = wf.anchor_dict
    _emit(doc)
    return EXIT_OK


def cmd_embed(args) -> int:
    s = _read_structure(args.file)
    if not isinstance(s, InvPoset):
        raise PreconditionError("embed needs an invposet document")
    n, vectors = canonical_embedding(s, prune=args.prune)
    _emit({"n": n, "map": vectors})
    return EXIT_OK


def cmd_retract(args) -> int:
    s = _read_structure(args.file)
    variety = _resolve_variety(args.variety)
    if not isinstance(s, InvPoset) or variety == "bdl":
        raise PreconditionError("retract needs an invposet and variety dm or kleene")
    n, vectors = canonical_embedding(s, prune=args.prune)
    r = build_retraction(s, variety, embedding=(n, vectors))
    _emit({"n": n, "embedding": vectors, "retraction": r})
    return EXIT_OK


def cmd_oracle(args) -> int:
    s = _read_structure(args.file)
    variety = (
        _resolve_variety(args.variety) if args.variety else _default_variety(s)
    )
    if args.check == "retraction":
        if not isinstance(s, InvPoset):
            raise PreconditionError("retraction oracle needs an invposet document")
        found = oracle_retraction_search(s, variety=variety)
        out: dict[str, Any] = {"found": found is not None}
        if found is not None:
            out["map"] = {v: found(v) for v in found.dom.elements}
        _emit(out)
    else:
        count = sum(1 for _ in enumerate_unifiers_bounded(s, variety, args.bound))
        _emit({"count": count, "bound": args.bound, "variety": args.variety or variety})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morgan-unify",
        description="Projectivity and unification-type classification over "
        "finite distributive lattice, Kleene, and De Morgan duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate and canonically reprint a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("dualize", help="apply the duality functor")
    p.add_argument("file")
    p.add_argument("--direction", choices=["to-dual", "to-algebra"], required=True)
    p.set_defaults(fn=cmd_dualize)

    p = sub.add_parser("free", help="dual of the free algebra on n generators")
    p.add_argument("--variety", choices=["dm", "kleene"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("projective", help="decide projectivity of the dual")
    p.add_argument("file")
    p.add_argument("--variety", choices=["bdl", "kleene", "dm"], required=True)
    p.set_defaults(fn=cmd_projective)

    p = sub.add_parser("classify", help="unification type with certificate")
    p.add_argument("file")
    p.add_argument("--variety", choices=["bdl", "kleene", "dm"], required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("core", help="unification core of an instance")
    p.add_argument("file")
    p.add_argument("--variety", choices=["kleene", "dm"], required=True)
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("witness", help="nullarity witness structure T_n")
    p.add_argument("--family", choices=["bdl", "k1", "k2", "m1", "m2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--anchors", action="store_true", help="include the unifier schema")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("embed", help="canonical embedding into a power of D")
    p.add_argument("file")
    p.add_argument("--prune", action="store_true")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("retract", help="constructive retraction onto the embedded dual")
    p.add_argument("file")
    p.add_argument("--variety", choices=["dm", "kleene"], required=True)
    p.add_argument("--prune", action="store_true")
    p.set_defaults(fn=cmd_retract)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    p.add_argument("file")
    p.add_argument("--check", choices=["retraction", "unifiers"], required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--variety", choices=["bdl", "kleene", "dm"])
    p.set_defaults(fn=cmd_oracle)

    return parser


#: built once: each call only parses, and argparse keeps no state between
#: parses, so every call sees a fresh namespace
PARSER = build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        _emit({"error": str(exc), "witness": jsonable(exc.witness)})
        return EXIT_MALFORMED
    except OSError as exc:
        _emit({"error": str(exc)})
        return EXIT_MALFORMED
    except SizeGuardError as exc:
        _emit({"error": str(exc)})
        return EXIT_GUARD
    except PreconditionError as exc:
        _emit({"error": str(exc)})
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
