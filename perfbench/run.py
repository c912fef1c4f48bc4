"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the result holds the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics. The workload runs
in a fresh worker process. For `setup_s`, more fresh processes first repeat
only its set-up: another starts while it still fits in SETUP_PROBE_S
seconds, up to SETUP_PROBES_MAX of them, and at least one runs. The
shortest set-up of all is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli_qvga", "calib_batch", "refine_small", "refine_grid")
SETUP_PROBE_S = 6.0
SETUP_PROBES_MAX = 7
WORKER_TIMEOUT = 150


def spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def worker(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, WORKER, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)] + extra, env=env, stdout=subprocess.PIPE,
                          timeout=timeout)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "metricshape", "__init__.py")):
        sys.stderr.write("run.py: no src/metricshape here; run it from the root of a source checkout\n")
        return 2
    bench = spec()

    setups = []
    probing = time.monotonic()
    while not args.trace and len(setups) < SETUP_PROBES_MAX:
        setups.append(worker(args, ["--setup-only"], 60)["setup_s"])
        spent = time.monotonic() - probing
        if spent + spent / len(setups) > SETUP_PROBE_S:
            break
    result = worker(args, [], WORKER_TIMEOUT)
    values = result["values"]
    setups.append(values["setup_s"])
    # the fastest of repeats, as for round_s: other tenants only ever slow a probe down
    values["setup_s"] = min(setups)

    for line in result["notes"]:
        print(f"{args.workload}: {line}")
    if result["errors"]:
        print(f"{args.workload}: failed operations by type: {json.dumps(result['errors'], sort_keys=True)}")
    for line in result["check_failures"]:
        print(f"{args.workload}: CHECK FAILED: {line}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if not args.trace and m["name"] not in values]
    if missing:
        raise SystemExit(f"workload {args.workload} measured no {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not result["check_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
