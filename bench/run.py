"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload qp-wide --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed and solves them, again and again
for about ``--seconds`` seconds, in this single process with BLAS limited to
one thread; set-up and solves are timed apart, each at its best time over
the run, and solve times are also given in units of the best time of a fixed
reference computation (reference.py).  Every solve is then checked
against an independent reference computed once, and a report is printed.  The
last line of standard output is one JSON object holding the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``: repetitions alternate untraced and traced, so the tracing
overhead is reported too).  The full record, and the spans of a traced run, are
written under bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
BLAS_THREADS = "1"
SETUP_SHARE = 0.1  # extra set-ups keep set-up time at this share of the run


@dataclass
class Rep:
    """One repetition of a workload's solve sequence."""

    wall: float
    solve_s: list
    pieces: list  # per solve: seconds of each outer iteration
    sols: list  # Solution, or the exception a solve raised
    tracer: object = None
    failures: list = field(default_factory=list)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import aladin from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "aladin" / "__init__.py").is_file():
        sys.exit(f"error: no aladin package under {src}")
    sys.path.insert(0, str(src))
    import aladin

    if src not in Path(aladin.__file__).resolve().parents:
        sys.exit(f"error: aladin was imported from {aladin.__file__}, not {src}")


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def fill_caches(problem):
    """One call of each derivative entry point per block at z0.

    These fill the lazily built derivative graphs, so their cost shows in
    set-up rather than in the first solve.
    """
    import numpy as np
    from aladin import expr as ex

    for sub, p in zip(problem.subproblems, problem.parameters):
        x = sub.z0
        ex.evaluate(sub.f, x, p)
        ex.gradient(sub.f, x, p)
        ex.jacobian(sub.g, x, p)
        ex.jacobian(sub.h, x, p)
        ex.lagrangian_hessian(
            sub.f, sub.g, sub.h, x, p, np.ones(sub.n_g), np.ones(sub.n_h)
        )


def set_up(wl, seed, setups):
    """Build and validate the inputs, then fill the caches; append both times."""
    from aladin import validate

    gc.collect()
    t0 = time.perf_counter()
    inst = wl.build(seed)
    for problem in inst.problems():
        issues = validate(problem)
        if issues:
            raise ValueError("invalid problem: " + "; ".join(issues))
    t1 = time.perf_counter()
    for problem in inst.problems():
        fill_caches(problem)
    setups.append((t1 - t0, time.perf_counter() - t1))
    return inst


class IterationClock:
    """Stands in for stdout during a solve and notes when each outer
    iteration's progress line (``log_every=1``) is written."""

    def __init__(self):
        self.marks = []

    def write(self, text):
        if text.startswith("iter"):
            self.marks.append(time.perf_counter())
        return len(text)

    def flush(self):
        pass


def drop_snapshots(sol):
    """Free the iterates a Solution's log keeps for every outer iteration.

    Kept for every repetition, they would make peak memory grow with the
    number of repetitions a run holds, and so with the machine's speed.
    """
    if not isinstance(sol, BaseException):
        for rec in sol.log.records:
            rec.z = rec.x = rec.lam = None
    return sol


def run_sequence(wl, inst, tracer=None):
    from aladin import set_parameters

    sols, times, pieces = [], [], []
    t_begin = time.perf_counter()
    for step in inst.steps:
        for i, p in enumerate(step.params or ()):
            set_parameters(step.problem, i, p)
        clock = IterationClock()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(clock), tracer.span("solve") if tracer else nullcontext():
                sol = wl.solve(step.problem)
        except Exception as err:  # a failed solve is counted, not fatal
            sol = err
        t1 = time.perf_counter()
        times.append(t1 - t0)
        marks = [t0, *clock.marks, t1]
        pieces.append([b - a for a, b in zip(marks, marks[1:])])
        sols.append(drop_snapshots(sol))
    return Rep(time.perf_counter() - t_begin, times, pieces, sols, tracer)


def repeat(wl, seed, seconds, setups, ref_times, trace):
    """Set up and solve until the next repetition would end after ``seconds``.

    Every repetition solves freshly built inputs; between repetitions further
    set-ups run until set-up time is ``SETUP_SHARE`` of the time so far, so
    ``setup_s`` is the best of many samples spread through the run.  Each
    set-up and repetition is followed by one pass of the reference
    computation, timed into ``ref_times``.  With ``trace`` every second
    repetition is traced, at least one of each kind.  Returns the
    repetitions and the last inputs.
    """
    from reference import reference_s
    from tracing import Tracer

    reps, took = [], []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        inst = None  # free the previous inputs before building the next
        inst = set_up(wl, seed, setups)
        ref_times.append(reference_s())
        gc.collect()
        tracer = Tracer() if trace and len(reps) % 2 else None
        with tracer.installed() if tracer else nullcontext():
            reps.append(run_sequence(wl, inst, tracer))
        ref_times.append(reference_s())
        while sum(map(sum, setups)) < SETUP_SHARE * (time.perf_counter() - t_begin):
            set_up(wl, seed, setups)
            ref_times.append(reference_s())
        now = time.perf_counter()
        took.append(now - t0)
        if len(reps) > trace and now - t_begin + max(took) > seconds:
            return reps, inst


def best_solve_s(reps):
    """Each solve's time, with every outer iteration at its best over the reps.

    Every repetition does the same work (its counts repeat exactly), so a
    slower time measures other load on the machine, not the code; the best
    time is the steadiest figure on a shared host, as ``timeit`` advises.
    Outer iterations, not whole solves, are the pieces, because this host's
    speed changes within a solve of several seconds.  A solve whose
    iteration count differs between repetitions counts its best total.
    """
    out = []
    for j in range(len(reps[0].pieces)):
        runs = [r.pieces[j] for r in reps]
        if all(len(p) == len(runs[0]) for p in runs):
            out.append(sum(map(min, zip(*runs))))
        else:
            out.append(min(map(sum, runs)))
    return out


def end_to_end(plain, setups, ref_times, peak_rss_mb):
    first = [s for s in plain[0].sols if not isinstance(s, BaseException)]
    attempted = sum(len(r.sols) for r in plain)
    failed = sum(len(r.failures) for r in plain)
    best = best_solve_s(plain)
    ref_s = min(ref_times)
    return {
        # solve times in units of the reference's best time in this run
        "wall_ref": sum(best) / ref_s,
        "solve_ref.max": max(best) / ref_s,
        "wall_s": sum(best),
        "solve_s.max": max(best),
        "ref_s": ref_s,
        "setup_s": min(b + f for b, f in setups),
        "outer_iters": sum(s.iterations for s in first),
        "comms_floats": sum(r.comms_floats for s in first for r in s.log.records),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(plain, traced, setups, n_c):
    from tracing import layer_metrics

    per_rep = [layer_metrics(r.tracer, r.sols, n_c) for r in traced]
    out = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    out.update({
        "problem.build_s": min(b for b, _ in setups),
        "expr.cache_fill_s": min(f for _, f in setups),
        # best times of interleaved traced and untraced repetitions
        "trace.overhead_s": sum(best_solve_s(traced)) - sum(best_solve_s(plain)),
    })
    return out


def write_record(args, record, traced):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    path = RESULTS / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    if traced:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for k, rep in enumerate(traced):
                for row in rep.tracer.records():
                    fh.write(json.dumps([k] + row) + "\n")
    return path


def report(wl, args, env, plain, traced, e2e, layers, failures):
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"steps {len(plain[0].sols)}  reps {len(plain)} untraced, {len(traced)} traced")
    print("  env: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    walls = sorted(r.wall for r in plain)
    print(f"  wall_s per rep: {', '.join(f'{w:.4f}' for w in walls)}")
    for k, v in e2e.items():
        print(f"  {k:<14} {v:.6g}")
    terms = [getattr(s, "termination", "raised") for r in plain for s in r.sols]
    print("  terminations: " + ", ".join(
        f"{t} x{terms.count(t)}" for t in sorted(set(terms))))
    for k, v in (layers or {}).items():
        print(f"  {k:<28} {v:.6g}")
    print("  failures: " + ("; ".join(failures) if failures else "none"))


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    from oracle import check
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    setups, ref_times = [], []
    reps, inst = repeat(wl, args.seed, args.seconds, setups, ref_times, args.trace)
    plain = [r for r in reps if r.tracer is None]
    traced = [r for r in reps if r.tracer is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every repetition solved the same inputs, so one reference serves all
    refs = inst.reference()
    failures = []
    for k, rep in enumerate(reps):
        for j, (sol, ref, step) in enumerate(zip(rep.sols, refs, inst.steps)):
            why = check(step.problem, sol, ref, wl.opts.term_eps, wl.tol)
            if why:
                rep.failures.append(why)
                failures.append(f"rep {k} solve {j}: {why}")

    env = environment()
    e2e = end_to_end(plain, setups, ref_times, peak_rss_mb)
    layers = per_layer(plain, traced, setups, inst.steps[0].problem.n_c) if traced else None
    record = {
        "workload": wl.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup": [{"build_s": b, "cache_fill_s": f} for b, f in setups],
        "reference_s": ref_times,
        "reps": [
            {"wall_s": r.wall, "solve_s": r.solve_s, "traced": r.tracer is not None,
             "terminations": [getattr(s, "termination", repr(s)) for s in r.sols],
             "failures": r.failures}
            for r in reps
        ],
        "end_to_end": e2e, "per_layer": layers,
    }
    path = write_record(args, record, traced)
    report(wl, args, env, plain, traced, e2e, layers, failures)
    print(f"  record: {path.relative_to(ROOT)}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    attempted = sum(len(r.sols) for r in reps)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(len(r.failures) for r in reps),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
