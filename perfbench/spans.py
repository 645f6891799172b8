"""Span tracing of library layers, installed from outside the library.

Each traced function is wrapped under every name that binds it in any
``morgan_unify`` module, so calls resolved through a module global
(``projectivity.is_three_complete``) and through the package namespace
(``morgan_unify.classify``) are both seen.  Generator functions are timed
over each resumption, not over the call that creates the generator.

Spans are folded into per-layer totals as they close: inclusive time
(outermost span of a layer only, so recursion is not counted twice) and
self time (duration minus the time covered by child spans).  Self times
of all spans, plus the ``other`` root span that encloses an operation,
add up to the operation's traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from common import PACKAGE

ROOT = "other"


def _count_points(tracer, args, kwargs, result):
    tracer.counts["order.three_complete_points"] += len(args[0].elements)


def _count_call(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += 1

    return hook


def _count_embed(tracer, args, kwargs, result):
    tracer.counts["projectivity.embed_calls"] += 1
    tracer.counts["projectivity.embed_dim_sum"] += result[0]


def _count_more_general(tracer, args, kwargs, result):
    tracer.counts["unification.more_general_calls"] += 1
    tracer.counts["unification.more_general_true"] += bool(result)


#: (module, function, layer, hook).  A hook runs after a plain call
#: returns; for generator functions it runs once per yielded item.
LAYERS = (
    ("documents", "parse_document", "documents.parse", None),
    ("documents", "structure_document", "documents.emit", None),
    ("order", "validate_poset", "order.validate", None),
    ("order", "lattice_report", "order.lattice", None),
    ("order", "is_three_complete", "order.three_complete", _count_points),
    ("order", "find_isomorphism", "order.iso", _count_call("order.iso_calls")),
    ("order", "enumerate_posets_upto", "order.enumerate", _count_call("order.classes")),
    ("involutive", "enumerate_invposets_upto", "involutive.enumerate",
     _count_call("involutive.classes")),
    ("involutive", "power", "involutive.power", None),
    ("involutive", "product", "involutive.power", None),
    ("involutive", "enumerate_inv_morphisms", "involutive.morphisms",
     _count_call("involutive.morphisms_yielded")),
    ("projectivity", "condition_report", "projectivity.conditions",
     _count_call("projectivity.conditions_calls")),
    ("projectivity", "canonical_embedding", "projectivity.embed", _count_embed),
    ("projectivity", "build_retraction", "projectivity.retract", None),
    ("projectivity", "oracle_retraction_search", "projectivity.oracle", None),
    ("unification", "kleene_core", "unification.core", None),
    ("unification", "demorgan_core", "unification.core", None),
    ("unification", "classify", "unification.classify", None),
    ("unification", "find_null_pattern", "unification.pattern", None),
    ("unification", "mu_set", "unification.mu_set", None),
    ("unification", "enumerate_unifiers_bounded", "unification.unifiers",
     _count_call("unification.unifiers_yielded")),
    ("unification", "more_general", "unification.more_general", _count_more_general),
    ("cli", "run_cli", "cli.run", None),
)


class Tracer:
    """Per-layer time and count totals, accumulated while installed."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._covered: list[float] = []  # child time of each open span
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str) -> float:
        self._covered.append(0.0)
        self._active[layer] += 1
        return perf_counter()

    def leave(self, layer: str, start: float) -> None:
        duration = perf_counter() - start
        covered = self._covered.pop()
        self._active[layer] -= 1
        self.self_time[layer] += duration - covered
        if not self._active[layer]:
            self.inclusive[layer] += duration
        if self._covered:
            self._covered[-1] += duration

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        start = tracer.enter(layer)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.leave(layer, start)
                        if hook is not None:
                            hook(tracer, args, kwargs, item)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(layer, start)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function under each name that binds it.

        The bindings are looked up on the first call, so the library must
        not be imported again while this tracer is in use.  A function
        missing from the library is skipped; its layer then reads 0.
        """
        if not self._patches:
            self._patches = self._bindings()
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        out = []
        for module_name, fn_name, layer, hook in LAYERS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), fn_name, None)
            if original is None:
                continue
            wrapped = self._wrap(original, layer, hook)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        out.append((module, attr, original, wrapped))
        return out
