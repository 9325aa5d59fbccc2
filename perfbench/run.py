"""dyadlab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from the root of a source checkout (``src/dyadlab``) and
prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  ``--workload all`` (the default) runs every workload, untraced
and traced, and prints one summary.  Workloads, metrics and the layer-to-
end-to-end map are described in ``perfbench/README.md``.

Each workload runs in fresh processes (``worker.py``).  ``setup_s`` is the
median over ``SETUP_SAMPLES`` processes of the time from spawning the
process to the instant its first timed op would start: interpreter start,
the dyadlab import, input generation and warm-up.  The last of them also
runs the timed batch.  Time metrics are calibrated against a reference
kernel for the host's drifting speed (``worker.reference_s``).  Every run's
full record (host, digest, raw times, sample counts, failed fraction) goes
to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
BUDGET_S = 170.0  # one workload run, set-up samples included
BLAS_THREADS = "1"

# workload and metric names, and metric units, in the order printed
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in METRICS["workloads"])


class BenchError(Exception):
    pass


def _spawn(workload, seed, seconds, trace, setup_only, deadline):
    # fixed string hashing and one BLAS thread, so that runs of one seed
    # repeat their outputs exactly
    env = dict(os.environ, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - t_spawn)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no record")
    rec = json.loads(lines[-1])
    rec["raw_setup_s"] = rec["t_ready"] - t_spawn
    rec["setup_s"] = rec["raw_setup_s"] * rec["setup_scale"]
    return rec


def run_workload(workload, seed, seconds, trace):
    """Returns ``(result line, full record)`` for one workload run."""
    deadline = time.perf_counter() + BUDGET_S
    if trace:
        rec = _spawn(workload, seed, seconds, 1, False, deadline)
        values = rec["metrics"]
    else:
        setups = [_spawn(workload, seed, seconds, 0, True, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        rec = _spawn(workload, seed, seconds, 0, False, deadline)
        rec["setup_samples_s"] = [r["setup_s"] for r in setups + [rec]]
        rec["raw_setup_samples_s"] = [r["raw_setup_s"]
                                      for r in setups + [rec]]
        values = dict(rec["metrics"],
                      setup_s=statistics.median(rec["setup_samples_s"]),
                      peak_rss_mb=rec["peak_rss_mb"])
    declared = METRICS["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               failed_frac=rec["failed"] / rec["attempted"])
    result = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
              "failed": rec["failed"], "metrics": metrics}
    return result, rec


def _report(result, rec):
    print(f"{rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"ops {rec['attempted']}  failed_frac {rec['failed_frac']:.4g}  "
          f"digest {rec['digest'][:16]} (first {rec['digest_ops']} ops)")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    if not rec["trace"]:
        valid = "" if rec["op_p90_valid"] else ", fewer than 100: not valid"
        print(f"  op latency samples: {rec['op_samples']}{valid}")
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{rec['workload']}-seed{rec['seed']}"
                  f"-trace{rec['trace']}.json")
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dyadlab" / "__init__.py").is_file():
        print(f"run.py: no dyadlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, rec = run_workload(args.workload, args.seed,
                                       args.seconds, args.trace)
            _report(result, rec)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, rec = run_workload(workload, args.seed, args.seconds,
                                           trace)
                _report(result, rec)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = m
        print(json.dumps(combined))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
