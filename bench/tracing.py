"""Spans around the calls into each aladin layer, and the per-layer metrics.

The wrappers replace, for the duration of a traced repetition, the names the
callers actually bind: ``driver`` imports ``solve_local``, ``run_dcg`` and
the sensitivity functions by name, ``local`` imports ``LdlFactor``, and
``local``, ``sensitivity`` and ``driver`` reach ``expr`` through the module.
The library itself is not modified.  Spans live in memory as
(name, start, end, parent, info) and are written out by the caller.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute the callers bind, span name)
TARGETS = (
    ("aladin.expr", "evaluate", "expr.evaluate"),
    ("aladin.expr", "gradient", "expr.gradient"),
    ("aladin.expr", "jacobian", "expr.jacobian"),
    ("aladin.expr", "lagrangian_hessian", "expr.hessian"),
    ("aladin.driver", "solve_local", "local"),
    ("aladin.local", "_solve_newton", "local.newton"),
    ("aladin.local", "LdlFactor", "linalg.ldl"),
    ("aladin.driver", "nullspace_basis", "sensitivity.nullspace"),
    ("aladin.driver", "reduce_block", "sensitivity.reduce"),
    ("aladin.driver", "schur_contribution", "sensitivity.schur"),
    ("aladin.sensitivity", "schur_contribution", "sensitivity.schur"),
    ("aladin.driver", "run_dcg", "decentral"),
    ("aladin.driver", "run_dadmm", "decentral"),
)


def _info(name, out):
    """What a span keeps of its call's result."""
    if name == "local":
        return {"status": out.status}
    if name == "decentral":
        log = out[1]
        return {
            "iters": log.iterations,
            "neighbor_rounds": log.neighbor_rounds,
            "global_sum_rounds": log.global_sum_rounds,
            "floats": log.total_floats(),
        }
    return None


class Tracer:
    """Nested spans of one traced repetition; single-threaded."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info]
        self._open = []

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._open.append(idx)
        return idx

    def _exit(self, idx):
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
                self.spans[idx][4] = _info(name, out)
                return out
            finally:
                self._exit(idx)

        return traced

    @contextmanager
    def installed(self):
        """Patch every target; restore the originals on exit.

        A missing target raises, so a traced run never reports a layer it
        did not measure.
        """
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    raise AttributeError(
                        f"trace target {mod_name}.{attr} no longer exists; "
                        "update TARGETS in bench/tracing.py"
                    )
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def records(self):
        """[name, start, end, parent, info] rows, times relative to the first span."""
        t_zero = self.spans[0][1] if self.spans else 0.0
        return [
            [n, round(t0 - t_zero, 9), round(t1 - t_zero, 9), par, info]
            for n, t0, t1, par, info in self.spans
        ]


def totals(spans):
    """Per span name: [calls, inclusive seconds, self seconds]."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for k, (name, t0, t1, _, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += t1 - t0 - child[k]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, sols, n_c):
    """Per-layer metrics of one traced repetition.

    ``sols`` are the repetition's Solutions (solves that raised are skipped).
    Seconds named ``.s`` are inclusive span time unless marked self.
    ``sensitivity.s``, ``coordination.s`` and ``driver.self_s`` come from
    ``Solution.timers``: ``coordination.s`` is the coordination window
    (``qp``) less the decentralized inner solve, so it includes the
    nullspace reduction and Schur assembly that run inside that window (also
    reported on their own as ``sensitivity.{nullspace,reduce,schur}``); in
    ``run_admm`` the window is the z-projection and dual update.
    """
    agg = totals(tracer.spans)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def info(name):
        return [sp[4] for sp in tracer.spans if sp[0] == name]

    sols = [s for s in sols if not isinstance(s, BaseException)]

    def timer(key):
        return sum(s.timers[key] for s in sols)

    local = info("local")
    newton = calls("local.newton")
    # a local solve that takes no Newton step returned its warm start
    stepped = {sp[3] for sp in tracer.spans if sp[0] == "local.newton"}
    warm_hits = sum(
        k not in stepped for k, sp in enumerate(tracer.spans) if sp[0] == "local"
    )
    inner = info("decentral")
    outer = sum(s.iterations for s in sols)
    driver_self = secs("solve") - timer("local") - timer("sensitivity") - timer("qp")
    m = {}
    for op in ("evaluate", "gradient", "jacobian", "hessian"):
        m[f"expr.{op}.calls"] = calls(f"expr.{op}")
        m[f"expr.{op}.s"] = secs(f"expr.{op}")
    m["expr.hessian.us_per_call"] = 1e6 * _ratio(secs("expr.hessian"), calls("expr.hessian"))
    m.update({
        "local.calls": len(local),
        "local.s": secs("local"),
        "local.self_s": agg.get("local", (0, 0.0, 0.0))[2],
        "local.newton_iters": newton,
        "local.newton.s": secs("local.newton"),
        "local.newton_per_call": _ratio(newton, len(local)),
        "local.maxiter_frac": _ratio(sum(i["status"] == "max-iter" for i in local), len(local)),
        "local.stalled_frac": _ratio(sum(i["status"] == "stalled" for i in local), len(local)),
        "local.warm_hit_frac": _ratio(warm_hits, len(local)),
        "linalg.ldl.calls": calls("linalg.ldl"),
        "linalg.ldl.s": secs("linalg.ldl"),
        "linalg.ldl_per_newton": _ratio(calls("linalg.ldl"), newton),
        "sensitivity.s": timer("sensitivity"),
        "sensitivity.schur.calls": calls("sensitivity.schur"),
        "sensitivity.schur.s": secs("sensitivity.schur"),
        "sensitivity.nullspace.s": secs("sensitivity.nullspace"),
        "sensitivity.reduce.s": secs("sensitivity.reduce"),
        "sensitivity.active_changes": sum(
            r.active_changes for s in sols for r in s.log.records
        ),
        "coordination.calls": sum(
            s.iterations - (s.termination == "tolerance-met") for s in sols
        ),
        "coordination.s": timer("qp") - timer("inner"),
        "coordination.dual_dim": n_c,
        "decentral.s": secs("decentral"),
        "decentral.inner_iters": sum(i["iters"] for i in inner),
        "decentral.neighbor_rounds": sum(i["neighbor_rounds"] for i in inner),
        "decentral.global_sum_rounds": sum(i["global_sum_rounds"] for i in inner),
        "decentral.floats": sum(i["floats"] for i in inner),
        "driver.outer_iters": outer,
        "driver.self_s": driver_self,
        "driver.per_iter_ms": 1e3 * _ratio(driver_self, outer),
    })
    return m
