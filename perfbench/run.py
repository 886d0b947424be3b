"""evanflow benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload recon-action --seed 1 --seconds 30 --trace 0

Runs in one process from the root of a source checkout and imports the
library from ``src/``.  Set-up (import, potential construction, warm-up) is
repeated and its median reported.  With ``--trace 0`` whole passes over the
workload's operations run until the next pass would end after ``--seconds``
(at least one pass).  With ``--trace 1`` one untraced pass and two traced
passes run; the two traced passes must count identical work.  Untraced
times are scaled to a nominal machine speed (``calibrate.Clock``).  The last
line of standard output is the result; the line before it is a report with
the run's stamp, its inputs and every operation.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
from benchstats import tail
from metrics import END_TO_END, EXACT, LAYERS, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
# not run while this benchmark was written; confirm a claimed gain on it
HELD_OUT_SEED = 171007858
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Ctx:
    """The freshly imported library, the built potentials and the tracer
    (None when untraced)."""

    def __init__(self, ev, modules, pairs):
        self.ev = ev
        self.cli = modules["cli"]
        self.modules = modules
        self.pairs = pairs
        self.tracer = None

    def pair(self, pp):
        return pp if self.tracer is None else self.tracer.counted(pp)


def _condition_environment(nproc: int) -> None:
    """One process: the library's worker count unset, BLAS threads capped."""
    os.environ.pop("EVANFLOW_WORKERS", None)
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)


def _warm_up(ev, cli, out: Path) -> None:
    pp = ev.make_quadratic([[1.0]])
    ev.minimize_action(pp.v, [1.0], T=1.0, N=16, psi=pp.psi)
    ev.gradient_flow(pp, [1.0], 1.0)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["determine", "quadratic:1", "quadratic:1+1", "--out", str(out)])


def set_up(wl, tmp: Path):
    """Import the library afresh, build the workload's potentials, warm up."""
    for name in [m for m in sys.modules if m == "evanflow" or m.startswith("evanflow.")]:
        del sys.modules[name]
    ev = importlib.import_module("evanflow")
    modules = {layer: importlib.import_module(f"evanflow.{layer}") for layer in LAYERS}
    pairs = [ev.make_quadratic(v) if kind == "matrix" else ev.resolve_potential(v)
             for kind, v in wl.potentials]
    _warm_up(ev, modules["cli"], tmp / "warmup")
    return Ctx(ev, modules, pairs)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(ctx, ops, tmp: Path, clock=None) -> list:
    """Run every operation once; time the call alone, then check it.  With a
    calibration clock the call's time is also scaled to the nominal speed."""
    records = []
    for i, op in enumerate(ops):
        out = tmp / f"op{i:02d}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if ctx.tracer is not None:
            ctx.tracer.op = i
        rec = {"op": op.label, "ok": False, "err": None, "info": {}}
        t0 = perf_counter()
        try:
            outcome = op.call(ctx, out)
        except Exception:  # an operation that raises is a failure, not the end of the run
            outcome = None
            rec["info"] = {"exception": traceback.format_exc(limit=4)[-1000:]}
        t1 = perf_counter()
        if clock is None:
            rec["raw_seconds"] = rec["seconds"] = t1 - t0
        else:
            rec["raw_seconds"], rec["seconds"] = clock.times(t0, t1)
        if outcome is not None:
            if ctx.tracer is not None:
                ctx.tracer.counts["cli.artifact_bytes"] += _dir_bytes(out)
            try:
                rec["ok"], rec["err"], rec["info"] = op.verify(outcome, out)
            except Exception:  # unreadable or missing artifacts fail the operation
                rec["info"] = {"verify_exception": traceback.format_exc(limit=4)[-1000:]}
        records.append(rec)
    return records


def pass_wall(records, key="seconds") -> float:
    """Wall time of one pass: the sum of its (scaled) call times."""
    return sum(r[key] for r in records)


def summarize(passes) -> dict:
    """Counts and end-to-end figures of a list of passes.  A failed
    operation counts as attempted and failed and adds no latency sample."""
    records = [r for p in passes for r in p]
    good = [r["seconds"] for r in records if r["ok"]]
    samples = good or [r["seconds"] for r in records]
    tail_s, pct, n = tail(samples)
    errs = [r["err"] for r in records if r["err"] is not None]
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "wall_raw_s": statistics.median(pass_wall(p, "raw_seconds") for p in passes),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
        "op_tail_percentile": pct,
        "op_samples": n,
        "err_max": max(errs) if errs else 0.0,
    }


def _commit(root: Path):
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root:
            return None
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts and p.suffix not in (".pyc", ".so"):
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def stamp(ev, seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    return {
        "backend": "compiled" if ev.USING_EXTENSION else "numpy",
        "using_extension": bool(ev.USING_EXTENSION),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(ROOT),
        "src_sha256": _src_digest(ROOT),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "conditions": {
            "processes": 1,
            "EVANFLOW_WORKERS": os.environ.get("EVANFLOW_WORKERS"),
            "workers": 1,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        },
    }


def _metric_block(values: dict, defs) -> dict:
    return {d[0]: {"value": values[d[0]], "unit": d[1]} for d in defs}


def measure(ctx, ops, tmp: Path, seconds: float, clock):
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(ctx, ops, tmp, clock))
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return passes


def measure_traced(ctx, ops, tmp: Path, spans_path: Path):
    from tracing import Tracer
    base = run_pass(ctx, ops, tmp)
    traced = []
    for _ in range(2):
        tracer = Tracer(ctx.ev.PotentialPair)
        tracer.install(ctx.ev, ctx.modules)
        ctx.tracer = tracer
        try:
            records = run_pass(ctx, ops, tmp)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        traced.append((tracer, records))
    (first, rec1), (second, rec2) = traced
    values, bases = first.metrics()
    again, _ = second.metrics()
    mismatch = {k: [values[k], again[k]] for k in EXACT if k in values and values[k] != again[k]}
    values["trace.overhead_s"] = pass_wall(rec1) - pass_wall(base)
    first.write_spans(spans_path)
    detail = {
        "untraced_wall_s": pass_wall(base),
        "traced_wall_s": [pass_wall(rec1), pass_wall(rec2)],
        "ratio_bases": bases,
        "counts_repeat_exactly": not mismatch,
        "count_mismatch": mismatch,
        "spans": len(first.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return [base, rec1, rec2], values, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "evanflow" / "__init__.py").is_file():
        print(f"error: no evanflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _condition_environment(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, so only after the thread caps are set

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = workloads.make(args.workload, args.seed, tmp)
        setups, raw_setups = [], []
        with calibrate.Clock() as clock:
            for _ in range(SETUP_REPEATS):
                gc.collect()  # garbage of the previous import, not this set-up's
                t0 = perf_counter()
                ctx = set_up(wl, tmp)
                raw, scaled = clock.times(t0, perf_counter())
                raw_setups.append(raw)
                setups.append(scaled)
            src = (ROOT / "src").resolve()
            if src not in Path(ctx.ev.__file__).resolve().parents:
                print(f"error: evanflow imported from {ctx.ev.__file__}, not {src}",
                      file=sys.stderr)
                return 2
            ops = wl.ops(ctx)
            if not args.trace:
                passes = measure(ctx, ops, tmp, args.seconds, clock)
        report = {"workload": wl.name, "trace": args.trace,
                  "stamp": stamp(ctx.ev, args.seed, nproc),
                  "inputs": wl.inputs, "setup_s_samples": setups,
                  "setup_raw_s_samples": raw_setups,
                  "calibration": {"nominal_block_s": calibrate.NOMINAL_S,
                                  "interval_s": calibrate.INTERVAL_S,
                                  "blocks": len(clock.blocks)}}
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.csv.gz"
            passes, values, detail = measure_traced(ctx, ops, tmp, spans_path)
            report["trace_detail"] = detail
            defs = [d[:3] for d in PER_LAYER]
            correct_extra = detail["counts_repeat_exactly"]
        else:
            values = {}
            defs = END_TO_END
            correct_extra = True
        summary = summarize(passes)
        if not args.trace:
            values.update({k: summary[k] for k in
                           ("wall_s", "op_p50_s", "op_tail_s", "err_max")})
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                     / 1024.0)
        report["summary"] = summary
        report["passes"] = passes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": summary["failed"] == 0 and correct_extra,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": _metric_block(values, defs),
    }
    print(json.dumps({"report": report}, sort_keys=True, default=float))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
