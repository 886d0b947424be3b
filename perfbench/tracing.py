"""Per-layer tracing installed from outside the library.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent, operation id).  The
wrapper goes on every module attribute that names the function, so names
that ``evanescent``, ``eikonal`` and ``cli`` import directly are covered.
Field callables of the potential pairs are wrapped separately, by
``Tracer.counted``: they are called about a million times per solve, so they
add counts and time to the enclosing span instead of making spans.  Spans
stay in memory until ``write_spans``.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

from benchstats import self_times

ACTION = "evanescent.minimize_action"
SHOOT = "evanescent.shoot_evanescent"

# span fields
NAME, LAYER, START, END, PARENT, OP, LEAF = range(7)


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is not None:
        return [n for n in names
                if callable(getattr(mod, n)) and not inspect.isclass(getattr(mod, n))]
    return [n for n, v in vars(mod).items()
            if inspect.isfunction(v) and v.__module__ == mod.__name__
            and not n.startswith("_")]


def _n_points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self, pair_type):
        self.pair_type = pair_type
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.op = None
        self._in_field = False
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self, package, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)
        in every namespace of ``package`` and ``modules`` that names them."""
        wrappers = {}  # id(function) -> wrapper
        for layer, mod in modules.items():
            for name in _public_functions(mod):
                fn = getattr(mod, name)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer)
        for mod in (package, *modules.values()):
            for name, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, val))

    def uninstall(self) -> None:
        for mod, name, val in reversed(self._undo):
            setattr(mod, name, val)
        self._undo.clear()

    def _wrap(self, fn, qual, layer):
        observe = _OBSERVERS.get(qual)
        if observe is None and qual.startswith("diagnostics.check_"):
            observe = _check

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qual, layer, perf_counter(), 0.0,
                    self.stack[-1] if self.stack else None, self.op, 0.0]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            self.active[qual] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self.active[qual] -= 1
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            if isinstance(result, self.pair_type):
                result = self.counted(result)
            return result

        return traced

    # -- field evaluations -------------------------------------------------

    def counted(self, pair):
        """Copy of ``pair`` whose field callables count calls, points and
        time.  Only the outermost field call is counted, so a field built on
        another counted field is not counted twice."""
        return self.pair_type(psi=self._count_field(pair.psi),
                              v=self._count_field(pair.v))

    def _count_field(self, field):
        return dataclasses.replace(
            field,
            value=self._count(field.value, "fields.value_calls"),
            gradient=self._count(field.gradient, "fields.gradient_calls"),
            hessvec=(None if field.hessvec is None
                     else self._count(field.hessvec, "fields.hessvec_calls")),
        )

    def _count(self, fn, key):
        def counted(x, *rest):
            if self._in_field:
                return fn(x, *rest)
            self._in_field = True
            t0 = perf_counter()
            try:
                return fn(x, *rest)
            finally:
                dt = perf_counter() - t0
                self._in_field = False
                self.counts[key] += 1
                self.counts["fields.points"] += _n_points(x)
                self.counts["fields.busy_s"] += dt
                if self.stack:
                    self.spans[self.stack[-1]][LEAF] += dt

        return counted

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced so far, and the base of
        each ratio among them."""
        c = self.counts
        spans = self.spans
        own = self_times([(s[START], s[END], s[PARENT], s[LEAF]) for s in spans])
        by_layer = Counter()
        action_self = shoot_self = 0.0
        assemble_busy = diag_busy = xv = 0.0
        for i, s in enumerate(spans):
            by_layer[s[LAYER]] += own[i]
            dur = s[END] - s[START]
            if s[NAME] == "kernels.action_assemble":
                assemble_busy += dur
            elif s[NAME] == "evanescent.cross_validate":
                xv += dur
            if s[LAYER] == "diagnostics" and (
                    s[PARENT] is None or spans[s[PARENT]][LAYER] != "diagnostics"):
                diag_busy += dur
            if s[LAYER] == "evanescent":
                owner = _solver_of(spans, i)
                if owner == ACTION:
                    action_self += own[i]
                elif owner == SHOOT:
                    shoot_self += own[i]
        grad_calls = c["kernels.assemble_grad_calls"]
        value_calls = c["kernels.assemble_value_calls"]
        steps = c["integrate.steps_accepted"] + c["integrate.steps_rejected"]
        solves = c["evanescent.action_solves"]
        shoots = c["evanescent.shoot_solves"]
        out = {
            "fields.value_calls": c["fields.value_calls"],
            "fields.gradient_calls": c["fields.gradient_calls"],
            "fields.hessvec_calls": c["fields.hessvec_calls"],
            "fields.points": c["fields.points"],
            "fields.busy_s": c["fields.busy_s"],
            "kernels.assemble_grad_calls": grad_calls,
            "kernels.assemble_value_calls": value_calls,
            "kernels.assemble_busy_s": assemble_busy,
            "kernels.assemble_us_per_call": _ratio(1e6 * assemble_busy,
                                                   grad_calls + value_calls),
            "kernels.el_residual_calls": c["kernels.el_residual_calls"],
            "integrate.orbits": c["integrate.orbits"],
            "integrate.steps_accepted": c["integrate.steps_accepted"],
            "integrate.steps_rejected": c["integrate.steps_rejected"],
            "integrate.accept_ratio": _ratio(c["integrate.steps_accepted"], steps),
            "integrate.self_s": by_layer["integrate"],
            "evanescent.action_solves": solves,
            "evanescent.action_iters": c["evanescent.action_iters"],
            "evanescent.action_converged_frac": _ratio(
                c["evanescent.action_converged"], solves),
            "evanescent.armijo_accept_ratio": _ratio(
                c["evanescent.action_iters"], c["evanescent.action_value_assembles"]),
            "evanescent.action_self_s": action_self,
            "evanescent.shoot_solves": shoots,
            "evanescent.shoot_orbits_per_solve": _ratio(
                c["evanescent.shoot_orbits"], shoots),
            "evanescent.shoot_self_s": shoot_self,
            "evanescent.cross_validate_s": xv,
            "eikonal.points": c["eikonal.points"],
            "eikonal.points_converged": c["eikonal.points_converged"],
            "eikonal.horizon_retries": c["eikonal.horizon_retries"],
            "eikonal.self_s": by_layer["eikonal"],
            "diagnostics.checks": c["diagnostics.checks"],
            "diagnostics.busy_s": diag_busy,
            "cli.self_s": by_layer["cli"],
            "cli.artifact_bytes": c["cli.artifact_bytes"],
        }
        # ratio bases, so every ratio can be reported with its base
        bases = {
            "integrate.accept_ratio": steps,
            "evanescent.action_converged_frac": solves,
            "evanescent.armijo_accept_ratio": c["evanescent.action_value_assembles"],
            "evanescent.shoot_orbits_per_solve": shoots,
            "kernels.assemble_us_per_call": grad_calls + value_calls,
        }
        return out, bases

    def write_spans(self, path) -> None:
        """Gzipped CSV of every span, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "op", "fields_s"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                            "" if s[PARENT] is None else s[PARENT], s[OP],
                            f"{s[LEAF]:.9f}"])


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def _solver_of(spans, i):
    """Nearest enclosing action or shooting solve of span ``i``, if any."""
    while i is not None:
        if spans[i][NAME] in (ACTION, SHOOT):
            return spans[i][NAME]
        i = spans[i][PARENT]
    return None


# -- result observers: counts that only the return value shows --------------

def _orbit(tr, args, kwargs, raw):
    tr.counts["integrate.orbits"] += 1
    tr.counts["integrate.steps_accepted"] += int(raw.meta.get("n_steps", 0))
    tr.counts["integrate.steps_rejected"] += int(raw.meta.get("n_rejected", 0))
    if tr.active[SHOOT]:
        tr.counts["evanescent.shoot_orbits"] += 1


def _assemble(tr, args, kwargs, result):
    want_grad = kwargs.get("want_grad", args[5] if len(args) > 5 else True)
    if want_grad:
        tr.counts["kernels.assemble_grad_calls"] += 1
    else:
        tr.counts["kernels.assemble_value_calls"] += 1
        if tr.active[ACTION]:
            tr.counts["evanescent.action_value_assembles"] += 1


def _el_residual(tr, args, kwargs, result):
    tr.counts["kernels.el_residual_calls"] += 1


def _action(tr, args, kwargs, res):
    tr.counts["evanescent.action_solves"] += 1
    tr.counts["evanescent.action_iters"] += int(res.detail.get("iterations", 0))
    tr.counts["evanescent.action_converged"] += int(bool(res.converged))


def _shoot(tr, args, kwargs, res):
    tr.counts["evanescent.shoot_solves"] += 1


def _point(tr, args, kwargs, res):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    tr.counts["eikonal.points"] += 1
    tr.counts["eikonal.points_converged"] += int(bool(res["converged"]))
    if opts is not None and res["T_used"] > opts.T:
        tr.counts["eikonal.horizon_retries"] += 1


def _check(tr, args, kwargs, result):
    tr.counts["diagnostics.checks"] += 1


_OBSERVERS = {
    "integrate.rk_adaptive": _orbit,
    "integrate.rk4_fixed": _orbit,
    "kernels.action_assemble": _assemble,
    "kernels.el_residual_max": _el_residual,
    ACTION: _action,
    SHOOT: _shoot,
    "eikonal.reconstruct_value": _point,
}
