"""Spans around qpolar's public functions, recorded from outside the package.

Each traced function is wrapped once and the wrapper is bound in place of
the original wherever a ``qpolar`` module holds it: ``geometry``,
``pauli`` and ``cli`` each keep their own ``from .gf2 import ...``
bindings, so patching only the defining module would miss their calls.
``Spread`` is traced through its ``__init__``, which sorts and validates
the blocks.  ``sp_form`` is deliberately absent: it runs about 10^6
times per ``mcs`` op, so a wrapper there would measure itself.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import qpolar
from qpolar import geometry

TRACED = {
    "cli": ("main", "run_verification", "canonical_json"),
    "geometry": (
        "enumerate_generators",
        "is_maximal_isotropic",
        "desarguesian_spread",
        "enumerate_spreads",
    ),
    "gf2": ("perp_census", "span_points", "rref"),
    "gf2n": ("dual_basis",),
    "pauli": ("commutes", "commutes_matrix", "mcs_of_generator", "commutation_sweep"),
}
SPREAD_SPAN = "geometry.Spread"
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs) + (SPREAD_SPAN,)


class Tracer:
    """Records (name, start, end, parent index, op id) spans in memory.

    ``install()`` and ``uninstall()`` swap the wrappers in and out, so
    ops run between them pay nothing for tracing.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for k, m in sys.modules.items() if k == "qpolar" or k.startswith("qpolar.")]
        for mod_name, funcs in TRACED.items():
            home = getattr(qpolar, mod_name)
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, wrapper, original))
        init = geometry.Spread.__init__
        self._patches.append((geometry.Spread, "__init__", self.wrap(SPREAD_SPAN, init), init))

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, _, original in reversed(self._patches):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans, op_ids) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s, each averaged over ``op_ids``."""
    ops = set(op_ids)
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, op = span
        if op in ops and name in totals:
            row = totals[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
    for row in totals.values():
        for key in row:
            row[key] /= len(ops)
    return totals
