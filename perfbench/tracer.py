"""Span tracer installed on todakdv from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
one span per call: (span id, parent span id, operation id, name, start, end).
A function defined in todakdv is rebound in every todakdv module namespace
that holds it, so callers that imported it by name are traced as well; a
third-party function is rebound only in the module named with it (for
example ``solver.lu_factor``).  ``uninstall`` restores the originals, so
untraced operations run the unmodified code.

Spans stay in memory; ``write`` dumps them at the end of the run and
``layer_stats`` reduces them to per-name call counts, total time and self
time (duration minus the part of the interval covered by child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# (span name, holder path, attribute).  The holder is a todakdv module or
# class; the span name is what the per-layer metrics are keyed by.
_METHODS = [
    ("diffpoly.EpsSeries.shift", "diffpoly.EpsSeries", "shift"),
    ("diffpoly.EpsSeries.dt_along", "diffpoly.EpsSeries", "dt_along"),
    ("diffpoly.EpsSeries.mul", "diffpoly.EpsSeries", "__mul__"),
    ("diffpoly.EpsSeries.mul", "diffpoly.EpsSeries", "__rmul__"),
]
# Third-party functions, traced only where the package binds them.
_FOREIGN = [
    ("solver.lu_factor", "solver", "lu_factor"),
    ("solver.lu_solve", "solver", "lu_solve"),
    ("bloch.solve_ivp", "bloch", "solve_ivp"),
]
TRACED_MODULES = ("hierarchy", "lattice", "solver", "bloch", "cli")


def _resolve(pkg, path: str):
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _public_functions(pkg) -> list[tuple[str, str, str]]:
    """Every function listed in ``__all__`` of the traced modules."""
    out = []
    for mod_name in TRACED_MODULES:
        mod = getattr(pkg, mod_name)
        for attr in mod.__all__:
            if isinstance(mod.__dict__.get(attr), types.FunctionType):
                out.append((f"{mod_name}.{attr}", mod_name, attr))
    return out


class Tracer:
    """Records spans for calls into todakdv while installed."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._modules = [
            m for name, m in sys.modules.items()
            if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")
        ]
        self._targets = _public_functions(pkg) + _METHODS + _FOREIGN

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op_id, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_hill_rhs(self, sol) -> None:
        self.counts["bloch.hill_rhs_evals"] += int(sol.nfev)

    def run_operation(self, op_id: int, fn):
        """Run ``fn()`` as operation ``op_id`` under an "op" root span."""
        self.op_id = op_id
        try:
            return self._wrap("op", fn)()
        finally:
            self.op_id = -1

    # -- installation ------------------------------------------------------

    def _patch(self, holder, attr: str, new) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.pkg
        for name, holder_path, attr in self._targets:
            holder = _resolve(pkg, holder_path)
            original = holder.__dict__[attr]
            hook = self._count_hill_rhs if name == "bloch.solve_ivp" else None
            wrapper = self._wrap(name, original, hook)
            if isinstance(holder, type) or (name, holder_path, attr) in _FOREIGN:
                self._patch(holder, attr, wrapper)
                continue
            for mod in self._modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

        counts = self.counts
        mono = pkg.diffpoly.Monomial
        mono_init = mono.__dict__["__init__"]

        def counting_init(obj, *args, **kwargs):
            counts["diffpoly.Monomial.created"] += 1
            mono_init(obj, *args, **kwargs)

        self._patch(mono, "__init__", counting_init)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only) and self_s.

        Times are summed over all recorded operations; callers divide by the
        number of traced operations.
        """
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, parent, _, name, t0, t1 in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - _covered(children.get(sid, ()))
            if not _has_ancestor(by_id, parent, name.__eq__):
                st["total_s"] += t1 - t0
        return dict(stats)

    def covered_by(self, prefixes: tuple[str, ...]) -> float:
        """Wall time covered by spans whose name starts with one of
        ``prefixes``, counting nested matches once."""
        by_id = {s[0]: s for s in self.spans}

        def match(name: str) -> bool:
            return name.startswith(prefixes)

        total = 0.0
        for sid, parent, _, name, t0, t1 in self.spans:
            if match(name) and not _has_ancestor(by_id, parent, match):
                total += t1 - t0
        return total


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def _has_ancestor(by_id, parent, match) -> bool:
    while parent is not None:
        span = by_id[parent]
        if match(span[3]):
            return True
        parent = span[1]
    return False
