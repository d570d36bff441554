"""One workload in one process: set up, run the op list, check the outputs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR [--setup-only]

Set-up ends just before the first timed op; the monotonic clock reading
at that moment is reported, so that ``run.py`` can time set-up from the
launch of this process.  With ``--setup-only`` the process stops there.

Untraced, the worker runs whole rounds until ``--seconds`` have passed.
A round executes the op list REPEATS times, pass after pass; an op's
time in the round is the best of its executions.  Traced, it runs one
round in which every op runs once untraced and once under the tracer.
The last line of standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads as wl

ENGINE = ("sweep", "matsubara")
ZERO_T_CHECKS = 4  # T = 0 sweep points per run checked against scipy
IMPORT_PROBES = 5
OVERHEAD_EVERY = 4  # every 4th op of a traced run also runs untraced


def _same(a, b) -> bool:
    """Bitwise equality of two library results (dataclasses with arrays)."""
    if type(a) is not type(b):
        return False
    return all(
        np.array_equal(np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name)))
        for f in dataclasses.fields(a)
    )


class Workload:
    """Set-up, execution and checks of one workload."""

    def __init__(self, name: str, seed: int, tmp_dir):
        self.name, self.seed = name, seed
        if name in ENGINE:
            self.ops = wl.sweep_ops(seed) if name == "sweep" else wl.matsubara_ops(seed)
            wl.build_engine_handles(self.ops)
            wl.engine_warm_up()
        else:
            self.env = wl.cli_env()
            self.ops = wl.cli_ops(seed, wl.make_trajectories(seed, tmp_dir))
            warm = wl.Op("ideal", {}, ["ideal", "--length-um", "1", "--area-cm2", "1"])
            if wl.call_cli(warm, self.env).returncode != 0:
                raise RuntimeError("the CLI does not start")
        self.first = {}  # op index -> first result, None if it failed
        self.outputs = {}  # op index, or CLI argument list -> first output
        self.errors = []

    # --- execution ---------------------------------------------------------

    def execute(self, i: int, in_process: bool = False, spans=None) -> tuple[bool, float]:
        """Run op i once and return whether it completed, and its wall time.
        The first output of an op is kept, later ones are compared with it.
        ``in_process`` calls the CLI's main() in this process, as traced
        runs do; ``spans`` is the tracer that records the call."""
        op = self.ops[i]
        t0 = time.perf_counter()
        if self.name in ENGINE:
            try:
                out, failure = wl.call_engine(op), None
            except Exception as exc:  # every library error counts as a failed op
                out, failure = None, f"{type(exc).__name__}: {exc}"
        elif in_process:
            from vacuumkit import cli

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
            out, failure = buffer.getvalue().encode(), (f"exit code {code}" if code else None)
        else:
            proc = wl.call_cli(op, self.env)
            out, failure = proc.stdout, (proc.stderr.decode(errors="replace") if proc.returncode else None)
        dt = time.perf_counter() - t0
        if spans is not None and self.name not in ENGINE:
            spans.set_last_count(tracer.CLI_MAIN, len(out))
        if failure is not None:
            self._note_failure(i, failure)
            return False, dt
        self._compare(i, out)
        return True, dt

    def _note_failure(self, i, message):
        if i not in self.first:
            self.first[i] = None
            last = message.strip().splitlines()[-1] if message.strip() else ""
            print(f"failed op {self.ops[i].kind} ({self._describe(i)}): {last}", file=sys.stderr)

    def _describe(self, i):
        op = self.ops[i]
        if op.argv:
            return " ".join(op.argv)
        return ", ".join(f"{k}={v:.6g}" for k, v in op.params.items() if isinstance(v, (int, float)))

    def _compare(self, i, out):
        # a repeated op, and for the CLI a repeated argument list, must give
        # the identical result
        self.first.setdefault(i, out)
        ref = self.outputs.setdefault(i if self.name in ENGINE else tuple(self.ops[i].argv), out)
        if ref is not out and not (ref == out if isinstance(out, bytes) else _same(ref, out)):
            self.errors.append(f"op {i} ({self.ops[i].kind}): a repeated execution gave a different result")

    # --- checks ------------------------------------------------------------

    def check(self) -> None:
        for i, out in sorted(self.first.items()):
            if out is None:
                continue
            op = self.ops[i]
            try:
                if self.name in ENGINE:
                    checks.ENGINE_CHECKS[op.kind](op.params, out)
                else:
                    outputs, error = checks.parse_cli(op.params["format"], out.decode())
                    checks.check_cli(op.kind, op.params, outputs, error)
            except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
                self.errors.append(f"op {i} ({op.kind}, {self._describe(i)}): {exc}")
        if self.name == "sweep":
            rng = np.random.default_rng([self.seed, 5])
            done = [i for i, out in self.first.items() if out is not None]
            for i in rng.choice(sorted(done), size=min(ZERO_T_CHECKS, len(done)), replace=False):
                op, res = self.ops[int(i)], self.first[int(i)]
                j = int(rng.integers(len(res.lengths)))
                try:
                    checks.check_zero_t_point(float(res.lengths[j]), op.params["plasma_wavelength"],
                                              float(res.eta_plasma[j]))
                except checks.CheckError as exc:
                    self.errors.append(f"op {int(i)} point {j}: {exc}")


def timed_rounds(work: Workload, seconds: float, repeats: int):
    """Whole rounds until `seconds` have passed.  Returns per round the
    best time of each op and whether all its executions completed, and
    the attempted and failed execution counts."""
    n = len(work.ops)
    rounds, attempted, failed = [], 0, 0
    start = time.monotonic()
    while True:
        best = [math.inf] * n
        done = [True] * n
        for _ in range(repeats):
            for i in range(n):
                ok, dt = work.execute(i)
                best[i] = min(best[i], dt)
                done[i] = done[i] and ok
                attempted += 1
                failed += not ok
        rounds.append((best, done))
        if time.monotonic() - start >= seconds:
            return rounds, attempted, failed


def latency_metrics(rounds) -> dict:
    """ops_per_s over all rounds; median and tail per round, then the
    median of those over the rounds, so no figure depends on how many
    rounds fitted into the run."""
    medians, tails, completed, busy = [], [], 0, 0.0
    for best, done in rounds:
        times = sorted(t for t, ok in zip(best, done) if ok)
        completed += len(times)
        busy += sum(best)
        medians.append(statistics.median(times))
        # highest percentile with 10 ops beyond it
        tails.append(times[len(times) - 11])
    return {
        "ops_per_s": completed / busy,
        "op_p50_s": statistics.median(medians),
        "op_tail_s": statistics.median(tails),
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_SELF if name in ENGINE else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def import_time() -> float:
    """Fresh-interpreter `import vacuumkit.cli` minus a bare interpreter
    start, medians of IMPORT_PROBES alternating starts."""
    env = wl.cli_env()
    samples = {"import vacuumkit.cli": [], "pass": []}
    for _ in range(IMPORT_PROBES):
        for code in samples:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=wl.ROOT, check=True, timeout=60)
            samples[code].append(time.perf_counter() - t0)
    return statistics.median(samples["import vacuumkit.cli"]) - statistics.median(samples["pass"])


def reference_counts() -> dict:
    """Counts of one T = 0 solve for gold at L = 1 um, traced on its own."""
    from vacuumkit import casimir, mirrors

    t = tracer.Tracer()
    t.install()
    try:
        casimir.thermal_force(casimir.CavityConfig.symmetric(1e-6, 1e-4, 0.0, mirrors.preset_mirror("gold")))
    finally:
        t.uninstall()
    m = t.metrics()
    return {
        "casimir.ref_inner_calls": m.get("casimir.inner_calls_per_solve"),
        "quadrature.ref_evaluations": m.get("quadrature.evaluations"),
    }


def traced_round(work: Workload, spans_path):
    """One round in which every op runs under the tracer.  Every
    OVERHEAD_EVERY-th op also runs untraced just before; the ops_per_s of
    those ops untraced minus traced is the tracing overhead.  Attempted
    and failed count the traced executions."""
    import vacuumkit.cli  # noqa: F401  (outside the timed calls)

    spans = tracer.Tracer()
    busy = {False: 0.0, True: 0.0}
    completed = {False: 0, True: 0}
    attempted = failed = 0
    for i in range(len(work.ops)):
        for traced in (False, True) if i % OVERHEAD_EVERY == 0 else (True,):
            if traced:
                spans.install()
            try:
                ok, dt = work.execute(i, in_process=True, spans=spans if traced else None)
            finally:
                spans.uninstall()
            if i % OVERHEAD_EVERY == 0:
                busy[traced] += dt
                completed[traced] += ok
        attempted += 1
        failed += not ok
    spans.save(spans_path)
    metrics = spans.metrics()
    metrics.update(reference_counts())
    metrics["cli.import_s"] = import_time()
    metrics["trace.overhead_ops_per_s"] = completed[False] / busy[False] - completed[True] / busy[True]
    return metrics, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(wl.SRC))
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        work = Workload(args.workload, args.seed, Path(tmp_dir))
        first_op = time.monotonic()
        record = {"first_op": first_op}
        if not args.setup_only:
            if args.trace:
                spans = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.npz"
                metrics, attempted, failed = traced_round(work, spans)
            else:
                rounds, attempted, failed = timed_rounds(work, args.seconds, wl.REPEATS[args.workload])
                metrics = latency_metrics(rounds)
                metrics["peak_rss_mb"] = peak_rss_mb(args.workload)
                record["op_times"] = [[t if ok else None for t, ok in zip(*r)] for r in rounds]
                record["ops"] = [f"{op.kind} {work._describe(i)}" for i, op in enumerate(work.ops)]
            work.check()
            for message in work.errors:
                print(f"check failed: {message}", file=sys.stderr)
            record.update(correct=not work.errors, attempted=attempted, failed=failed, metrics=metrics)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
