"""One workload in a fresh interpreter; prints one JSON line for run.py.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --launched T [--setup-only]

`--launched` is the `time.monotonic()` reading taken by the parent just
before it started this process, so `setup_s` covers interpreter start,
imports and input generation up to the first timed operation.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import time

from common import NoTracer, Outcome, Tracer, describe, emit

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

# name: (module, setup, run, install tracing wrappers, traced run replacing run).
# Only the chosen workload's module is imported, and none of them imports
# the package or scipy at import time, so `setup_s` pays for exactly the
# imports its own set-up makes.
WORKLOADS = {
    "cli_qvga": ("wl_cli", "setup", "run", "install", "run_traced"),
    "calib_batch": ("wl_calib", "setup", "run", None, None),
    "refine_small": ("wl_refine", "setup_small", "run", "install", None),
    "refine_grid": ("wl_refine", "setup_grid", "run", "install", None),
}

# spans whose mean duration is a per-layer metric named "<span>_ms"
SPAN_LAYERS = (
    "fileio.write_ply", "fileio.write_depth_pfm", "fileio.read_depth_pfm",
    "synthetic.render_depth", "synthetic.sample_constraints",
    "incidence.unproject_with_field", "incidence.extract_residual", "incidence.field_from_intrinsics",
    "metrics.shape_metrics", "metrics.depth_metrics",
    "solver.enumerate_solutions", "solver.overdetermined", "solver.huber",
    "losses.total_loss", "losses.chamfer_distance",
)


class Context:
    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tracer = Tracer() if self.trace else NoTracer()
        self.outcome = Outcome()
        self.workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
        self.state = None
        self.notes: list[str] = []

    def say(self, line: str) -> None:
        self.notes.append(line)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    module, *names = WORKLOADS[args.workload]
    module = importlib.import_module(module)
    setup, run, install, run_traced = (getattr(module, n) if n else None for n in names)

    ctx = Context(args)
    os.makedirs(ctx.workdir, exist_ok=True)
    try:
        if ctx.trace and install is not None:
            install(ctx.tracer)
        setup(ctx)
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            emit({"setup_s": setup_s})
            return 0
        values = (run_traced or run)(ctx) if ctx.trace else run(ctx)
    except Exception as exc:
        sys.stderr.write(f"worker {args.workload}: {describe(exc)}\n")
        raise
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    values["setup_s"] = setup_s
    if ctx.trace:
        ctx.tracer.remove()
        for name in SPAN_LAYERS:
            values.setdefault(f"{name}_ms", ctx.tracer.mean_ms(name))
        if "trace.round_s" not in values:
            values["trace.round_s"] = values["round_s"]
        ctx.tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-{args.seed}.jsonl"))
    out = ctx.outcome
    emit({
        "values": values,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": dict(out.errors),
        "check_failures": out.check_failures,
        "notes": ctx.notes,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
