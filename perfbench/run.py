"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep|matsubara|cli --seed N --seconds S --trace 0|1

Run from the root of a vacuumkit checkout; the library is imported from
its ``src/``.  With ``--trace 0`` the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

with the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  Every workload runs in a fresh worker process
(``worker.py``).  Set-up time is the median over SETUP_SAMPLES fresh
starts: SETUP_SAMPLES - 1 processes that stop before their first timed
op, and the worker itself.  Result and span files go to perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(args, extra: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker process to its end; returns its record and the
    monotonic time at its launch."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(OUT_DIR), *extra]
    launched = time.monotonic()
    # its own process group, so that a timeout also stops the CLI
    # processes the worker may have running
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), launched


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "vacuumkit" / "__init__.py").is_file():
        print(f"error: no vacuumkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()

    def remaining():
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe, launched = worker(args, ["--setup-only"], remaining())
                setup.append(probe["first_op"] - launched)
        record, launched = worker(args, [], remaining())
        setup.append(record["first_op"] - launched)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = record["metrics"]
    if not args.trace:
        raw["setup_s"] = statistics.median(setup)
    # a layer whose functions a later version no longer has reports nothing
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"] if raw.get(m["name"]) is not None}
    result = {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setup_samples=setup, raw=raw, op_times=record.get("op_times"),
                  ops=record.get("ops"))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
