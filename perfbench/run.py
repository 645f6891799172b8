#!/usr/bin/env python3
"""Benchmark of the morgan_unify library, driven from outside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from the src/ directory beside perfbench/.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 each op runs once untraced and once traced, and the
metrics are per-layer times and counts from the traced runs.

A run repeats whole rounds; a round runs every op class of the workload
once, in an order shuffled from the seed, so each class weighs the same
in every run whatever the machine's speed.  Another round starts while
the timed op seconds so far plus half a mean round stay within
--seconds.  Each result is checked after its op, outside the timed
region.

Every timing that feeds the end-to-end metrics is rescaled to a fixed
host speed (speed.py): after each op, outside the timed region, the run
times a fixed piece of pure-Python work, and each op time is multiplied
by REFERENCE_S over the median of the references around it.  The host
changes speed by up to 1.8 times within tens of seconds, which raw
medians carry from run to run; the rescaled ones do not.  stderr shows
the raw figures beside them.

An op class is deterministic, the same input and the same work every
round, so its spread over the rounds is the host's noise.
verdict_p50_ms and verdict_p90_ms are therefore taken over the classes,
each at its median rescaled time in the run; taken over single ops they
would fall between the fastest op of one class and the slowest of the
next wherever the classes' costs leave a gap.

setup_s is the median of the workload's SETUPS set-ups, spread over the
run between ops.  Each runs in a child process (--set-up-only), so the
running workload's memory is not counted twice, and is timed from just
before the library import until the inputs are built, serialized and
parsed and the warm-up ops have run, and rescaled by references timed
just before and after it.  Bytecode goes to a private directory the run
creates in the checkout and removes at its end: the run's own import
compiles the library into it, one discarded set-up fills in what else
the set-up imports, and every timed set-up then loads bytecode from
there, whatever lies in the source tree's __pycache__.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# bytecode is written only to a run's private prefix, never beside the sources
sys.dont_write_bytecode = not sys.pycache_prefix
sys.path[:0] = [str(HERE), str(SRC)]

from common import import_library  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from speed import REFERENCE_S, rescale, sample  # noqa: E402

WORKLOADS = {
    "dual-decide": "dual_decide",
    "big-orders": "big_orders",
    "corpus-audit": "corpus_audit",
}


def set_up(module, seed: int, tracer=None):
    """Import the library, build the inputs and run the warm-up ops;
    returns the workload and the wall time this took."""
    start = time.perf_counter()
    lib = import_library()
    if tracer is not None:
        tracer.install()
    try:
        workload = module.build(lib, random.Random(seed))
        for op in workload.warmup:
            op.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload, time.perf_counter() - start


def scaled_set_up(module, seed: int) -> tuple[float, float]:
    """One set-up's seconds, rescaled to the reference speed and raw."""
    for _ in range(3):  # warm the reference's code
        sample()
    refs = [sample() for _ in range(5)]
    _, seconds = set_up(module, seed)
    refs += [sample() for _ in range(5)]
    return seconds * REFERENCE_S / statistics.median(refs), seconds


def child_set_up(name: str, seed: int) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter; returns its seconds,
    rescaled and raw."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--set-up-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up exited {done.returncode}: {done.stderr.strip()}")
    scaled, raw = done.stdout.split()[-2:]
    return float(scaled), float(raw)


class Checker:
    """Checks results, fully once per distinct result of an op class."""

    def __init__(self):
        self.verified: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def problem(self, op, result) -> str | None:
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        if self.verified.get(op.name) == result:
            return None
        try:
            problem = op.check(result)
        except Exception as exc:  # a malformed result fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            self.verified[op.name] = result
        return problem

    def record(self, op, *results) -> None:
        self.attempted += 1
        problems = [p for p in (self.problem(op, r) for r in results) if p]
        if problems:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {op.name}: {problems[0]}", file=sys.stderr)


def timed(op):
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # counted as a failed op
        result = exc
    return result, time.perf_counter() - start


def run_rounds(name: str, seed: int, seconds: float, run_op, tracer=None):
    """Set up, then run whole shuffled rounds until --seconds of op time
    is used.  `run_op` runs and checks one op and returns its timed
    seconds.  Untraced runs time a child set-up after each SETUPS-th part
    of --seconds, between ops.  Returns the set-up times, the set-up's
    problems, the timed seconds and the number of rounds."""
    module = importlib.import_module(WORKLOADS[name])
    order = random.Random(f"{seed}:order")
    workload, _ = set_up(module, seed, tracer)
    setups, round_times, since_setup = [], [], 0.0
    if tracer is None:
        child_set_up(name, seed)  # fills the bytecode prefix; not counted
    while not round_times or sum(round_times) * (1 + 0.5 / len(round_times)) <= seconds:
        ops = list(workload.ops)
        order.shuffle(ops)
        round_times.append(0.0)
        for op in ops:
            dt = run_op(op)
            round_times[-1] += dt
            since_setup += dt
            due = since_setup >= seconds / module.SETUPS
            if tracer is None and due and len(setups) < module.SETUPS:
                setups.append(child_set_up(name, seed))
                since_setup = 0.0
    while tracer is None and len(setups) < module.SETUPS:
        setups.append(child_set_up(name, seed))
    print(f"rounds of {', '.join(f'{t:.2f}' for t in round_times)} s", file=sys.stderr)
    return setups, workload.problems, sum(round_times), len(round_times)


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    checker = Checker()
    names: list[str] = []
    raw: list[float] = []
    refs: list[float] = []

    def run_op(op) -> float:
        result, dt = timed(op)
        names.append(op.name)
        raw.append(dt)
        refs.append(sample())
        checker.record(op, result)
        return dt

    setups, problems, measured, count = run_rounds(name, seed, seconds, run_op)
    times = rescale(raw, refs)
    by_class: dict[str, list[float]] = {}
    for op_name, t in zip(names, times):
        by_class.setdefault(op_name, []).append(t)
    typical = [statistics.median(ts) for ts in by_class.values()]
    p90 = statistics.quantiles(typical, n=10)[8]
    print(
        f"{count} rounds, {len(times)} ops of {len(typical)} classes, "
        f"{sum(t > p90 for t in typical)} classes and {sum(t > p90 for t in times)} ops "
        f"beyond p90; raw: "
        f"p50 {1000 * statistics.median(raw):.2f} ms, "
        f"p90 {1000 * statistics.quantiles(raw, n=10)[8]:.1f} ms, "
        f"{len(raw) / measured:.2f} ops/s, reference median "
        f"{1000 * statistics.median(refs):.3f} ms, "
        f"set-ups {', '.join(f'{r:.3f}' for _, r in setups)} s",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "verdict_p50_ms": (1000 * statistics.median(typical), "ms"),
        "verdict_p90_ms": (1000 * p90, "ms"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return result_line(checker, problems, metrics)


def traced(name: str, seed: int, seconds: float) -> dict:
    checker = Checker()
    setup_tracer, tracer = Tracer(), Tracer()
    plain, spanned = [], []

    def run_op(op) -> float:
        # alternate which run of the pair goes first
        if len(plain) % 2:
            plain_result, dt_plain = timed(op)
        tracer.install()
        span = tracer.enter(ROOT_SPAN)
        traced_result, dt_traced = timed(op)
        tracer.leave(ROOT_SPAN, span)
        tracer.uninstall()
        if not len(plain) % 2:
            plain_result, dt_plain = timed(op)
        plain.append(dt_plain)
        spanned.append(dt_traced)
        checker.record(op, plain_result, traced_result)
        return dt_plain + dt_traced

    # the set-up is traced with its own tracer, so enumeration layers are
    # reported per set-up and op layers per op
    _, problems, _, count = run_rounds(name, seed, seconds, run_op, setup_tracer)
    print(f"{count} rounds, {len(plain)} traced ops", file=sys.stderr)
    metrics = layer_metrics(setup_tracer, tracer, len(plain), sum(plain), sum(spanned))
    return result_line(checker, problems, metrics)


def layer_metrics(setup, ops, n: int, plain_s: float, traced_s: float) -> dict:
    def per_op_ms(totals, layer):
        return (1000 * totals.get(layer, 0.0) / n, "ms")

    def incl(layer):
        return per_op_ms(ops.inclusive, layer)

    def own(layer):
        return per_op_ms(ops.self_time, layer)

    def count(key):
        return (ops.counts.get(key, 0.0) / n, "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    classes = setup.counts.get("order.classes", 0) + setup.counts.get("involutive.classes", 0)
    return {
        "documents.parse_ms": own("documents.parse"),
        "documents.emit_ms": incl("documents.emit"),
        "order.validate_ms": incl("order.validate"),
        "order.lattice_ms": incl("order.lattice"),
        "order.three_complete_ms": incl("order.three_complete"),
        "order.three_complete_points": count("order.three_complete_points"),
        "order.iso_ms": (1000 * setup.inclusive.get("order.iso", 0.0), "ms"),
        "order.iso_calls_per_class": ratio(setup.counts.get("order.iso_calls", 0), classes),
        "order.enumerate_ms": (1000 * setup.inclusive.get("order.enumerate", 0.0), "ms"),
        "involutive.enumerate_ms": (
            1000 * setup.inclusive.get("involutive.enumerate", 0.0), "ms"
        ),
        "involutive.power_ms": incl("involutive.power"),
        "involutive.morphisms_ms": incl("involutive.morphisms"),
        "involutive.morphisms_yielded": count("involutive.morphisms_yielded"),
        "projectivity.conditions_ms": own("projectivity.conditions"),
        "projectivity.conditions_calls": count("projectivity.conditions_calls"),
        "projectivity.embed_ms": incl("projectivity.embed"),
        "projectivity.embed_dim": (
            ratio(ops.counts.get("projectivity.embed_dim_sum", 0),
                  ops.counts.get("projectivity.embed_calls", 0))[0],
            "count",
        ),
        "projectivity.retract_ms": own("projectivity.retract"),
        "projectivity.oracle_ms": incl("projectivity.oracle"),
        "unification.core_ms": incl("unification.core"),
        "unification.classify_ms": own("unification.classify"),
        "unification.pattern_ms": incl("unification.pattern"),
        "unification.mu_set_ms": incl("unification.mu_set"),
        "unification.unifiers_ms": incl("unification.unifiers"),
        "unification.unifiers_yielded": count("unification.unifiers_yielded"),
        "unification.more_general_ms": incl("unification.more_general"),
        "unification.more_general_calls": count("unification.more_general_calls"),
        "unification.more_general_hit_ratio": ratio(
            ops.counts.get("unification.more_general_true", 0),
            ops.counts.get("unification.more_general_calls", 0),
        ),
        "cli.self_ms": own("cli.run"),
        "setup.order.validate_ms": (
            1000 * setup.inclusive.get("order.validate", 0.0), "ms"
        ),
        "trace.other_ms": own("other"),
        "trace.self_sum_ms": (1000 * sum(ops.self_time.values()) / n, "ms"),
        "trace.untraced_op_ms": (1000 * plain_s / n, "ms"),
        "trace.overhead_share": (traced_s / plain_s - 1, "ratio"),
        "trace.instances_per_s_traced": (n / traced_s, "1/s"),
        "trace.instances_per_s_untraced": (n / plain_s, "1/s"),
    }


def result_line(checker: Checker, problems: list[str], metrics: dict) -> dict:
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", action="store_true",
                        help="time one set-up and print its seconds, rescaled and raw")
    args = parser.parse_args(argv)
    if not (SRC / "morgan_unify" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.set_up_only:
        module = importlib.import_module(WORKLOADS[args.workload])
        print(*scaled_set_up(module, args.seed))
        return 0
    run = traced if args.trace else end_to_end
    # a terminated run still removes its bytecode prefix and its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix=".perfbench-pycache-", dir=ROOT) as prefix:
        sys.pycache_prefix, sys.dont_write_bytecode = prefix, False
        os.environ["PYTHONPYCACHEPREFIX"] = prefix  # child set-ups share it
        result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
