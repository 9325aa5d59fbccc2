"""One workload process: set-up, then a timed closed-loop batch.

Started by ``run.py`` in a fresh interpreter, so module state such as
``bellman._TABLE_CACHE`` starts empty.  Prints one JSON record as its last
line of standard output.  ``--setup-only`` stops where the first timed op
would start and reports that instant (``time.perf_counter`` is the
system-wide monotonic clock, so the parent can subtract its spawn time).

Untraced batch: ops run back to back until ``--seconds`` have passed and
the current round is complete.  A short fixed reference kernel runs before
the first op and after every op (once more per quarter second of op time);
each op's wall time is also reported scaled by ``REF_NOMINAL_S`` over the
median of the reference times nearest to it (see ``reference_s``).  Traced batch: each op runs twice on the
same inputs, once with the tracer installed and once without, alternating
which goes first; per-layer figures come from the traced executions and
``trace.overhead_ratio`` compares the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKING_SETS = {"shift-norms depth 8": 256 * 256 * 8,
                "shift-norms depth 10": 1024 * 1024 * 8}


# Nominal reference-kernel time: about its median on the development host
# (Xeon, 2 vCPUs under KVM, Python 3.11, numpy 2.4).  Calibrated values are
# seconds at the speed where the kernel takes this long.
REF_NOMINAL_S = 0.008
REFS_PER_S = 4  # extra reference runs per second of op time
_REF_ARRAY = np.random.default_rng(0).standard_normal((11, 11, 11, 11))


def reference_s():
    """Wall time of a fixed kernel of about 8 ms.

    The host's speed drifts by up to 1.8x over tens of seconds (other
    tenants); the kernel mixes what the workloads spend time on (Fraction
    arithmetic, small numpy slices, interpreted integer loops), so the ratio
    of an op's time to it stays within a few percent while raw times swing.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    a = _REF_ARRAY
    for _ in range(120):
        b = a[1:, 1:, 1:, 1:] + a[:-1, :-1, :-1, :-1]
        b *= 0.5
        np.maximum(b, a[1:, :-1, 1:, :-1], out=b)
    s = 0
    for i in range(16000):
        s += i * i % 7
    return time.perf_counter() - t0


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def _import_program(root):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import dyadlab
    if Path(dyadlab.__file__).resolve().parent != src / "dyadlab":
        raise ImportError(f"dyadlab imported from {dyadlab.__file__}, "
                          f"not from {src}")
    from dyadlab import (bellman, cli, dyadic, exact, normlab, schur,
                         shifts, signal)
    return {"dyadic": dyadic, "exact": exact, "signal": signal,
            "shifts": shifts, "schur": schur, "bellman": bellman,
            "normlab": normlab, "cli": cli}


def _cache_sizes():
    """Per-instance CPU cache sizes in bytes, read from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        mult = units.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return out


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # older numpy: no dict mode; the record stays partial
        pass
    caches = _cache_sizes()
    l2 = caches.get("L2")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "working_sets": {
            name: {"bytes": size,
                   "fits_l2": None if l2 is None else size <= l2}
            for name, size in WORKING_SETS.items()},
    }


def _run_op(wl, i, tracer=None):
    """Time one op, traced if a tracer is given, then check it outside the
    timed (and traced) region; an exception counts as a failed op."""
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            result, error = wl.op(i), None
        except Exception:
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    if error is None:
        try:
            ok, digest = wl.check(result)
            return elapsed, ok, digest, wl.power_iterations(result)
        except Exception:
            error = traceback.format_exc()
    sys.stderr.write(error)
    return elapsed, False, b"", 0


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _latency_metrics(lat):
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": _p90(lat)}


def _nearby_reference(clusters, k, want=8):
    """Median reference time around op ``k``: the runs just before and just
    after it, widened by one op on each side until there are ``want``."""
    lo, hi = k, k + 2
    while (sum(len(c) for c in clusters[lo:hi]) < want
           and (lo > 0 or hi < len(clusters))):
        lo, hi = max(0, lo - 1), min(len(clusters), hi + 1)
    return statistics.median(r for c in clusters[lo:hi] for r in c)


def untraced_batch(wl, seconds):
    n_round = len(wl.shapes)
    lat, failed = [], 0
    digest = hashlib.sha256()
    t_first = time.perf_counter()
    # clusters[k] holds the reference runs just before op k; longer ops get
    # more of them, so each op is calibrated by runs measured close to it
    clusters = [[reference_s()]]
    i = 0
    while True:
        elapsed, ok, d, _ = _run_op(wl, i)
        clusters.append([reference_s()
                         for _ in range(1 + int(elapsed * REFS_PER_S))])
        lat.append(elapsed)
        failed += not ok
        if i < n_round:
            digest.update(d)
        i += 1
        if i % n_round == 0 and time.perf_counter() - t_first >= seconds:
            break
    calibrated = [t * REF_NOMINAL_S / _nearby_reference(clusters, k)
                  for k, t in enumerate(lat)]
    return t_first, {
        "attempted": i, "failed": failed, "digest": digest.hexdigest(),
        "digest_ops": n_round,
        "metrics": _latency_metrics(calibrated),
        "raw_metrics": _latency_metrics(lat),
        "reference_s": statistics.median(r for c in clusters for r in c),
        "op_samples": len(lat),
        "op_p90_valid": len(lat) >= 100,
    }


def traced_batch(wl, tracer, seconds):
    n_round = len(wl.shapes)
    plain_lat, traced_lat = [], []
    plain_iters = traced_iters = 0
    failed = mismatched = 0
    digest = hashlib.sha256()
    t_first = time.perf_counter()
    i = 0
    while True:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, ok, d, iters = _run_op(wl, i, tracer if traced else None)
            failed += not ok
            if traced:
                traced_lat.append(elapsed)
                traced_iters += iters
                traced_digest = d
            else:
                plain_lat.append(elapsed)
                plain_iters += iters
                plain_digest = d
        # tracing must not change a single output byte
        mismatched += traced_digest != plain_digest
        if i < n_round:
            digest.update(plain_digest)
        i += 1
        if i % n_round == 0 and time.perf_counter() - t_first >= seconds:
            break
    metrics = layer_metrics(tracer, i)
    metrics["trace.overhead_ratio"] = sum(plain_lat) / sum(traced_lat)
    metrics["normlab.power_iterations_spread"] = (
        abs(plain_iters - traced_iters) / traced_iters if traced_iters
        else 0.0)
    return t_first, {
        "attempted": 2 * i, "failed": failed + mismatched,
        "trace_mismatches": mismatched, "digest": digest.hexdigest(),
        "digest_ops": n_round, "metrics": metrics, "spans": len(tracer.spans),
    }


def layer_metrics(tracer, n_ops):
    """Per-op means over the traced executions."""
    agg = tracer.self_times()
    by_name, counts = agg["by_name"], tracer.counts

    def self_s(*names):
        return sum(by_name.get(n, 0.0) for n in names) / n_ops

    out = {}
    for layer, value in agg["by_layer"].items():
        out[f"{layer}.self_s"] = value / n_ops
        out[f"{layer}.calls"] = agg["layer_calls"][layer] / n_ops
    for name in ("shifts.random_extremal_shift", "shifts.symmetrize",
                 "shifts.shift_matrix", "normlab.opnorm_lp_lower",
                 "signal.haar_expand", "signal.haar_reconstruct",
                 "signal.haar_coeff", "signal.average", "shifts.apply_shift",
                 "shifts.martingale_transform", "schur.find_alpha",
                 "schur.norm1_lower", "schur.lambda_matrix",
                 "bellman.concavity_gain_check"):
        out[f"{name}.self_s"] = self_s(name)
    out["shifts.paraproduct.self_s"] = self_s("shifts.paraproduct",
                                              "shifts.paraproduct_adjoint")
    out["bellman.dp_build.self_s"] = self_s("bellman.BellmanTable.layer")
    out["exact.mode_self_s"] = agg["exact_self"] / n_ops
    out["shifts.coefficients"] = counts["shift_coefficients"] / n_ops
    out["normlab.power_iterations"] = counts["power_iterations"] / n_ops
    out["bellman.dp_candidate_updates"] = \
        counts["dp_candidate_updates"] / n_ops
    out["schur.norm1_ascent_win_ratio"] = (
        counts["ascent_wins"] / counts["ascent_runs"]
        if counts["ascent_runs"] else 0.0)
    out["bellman.table_cache_hit_ratio"] = (
        counts["oracle_hits"] / counts["oracle_calls"]
        if counts["oracle_calls"] else 0.0)
    return out


def main():
    args = _parse()
    root = Path(args.root)
    dl = _import_program(root)
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    from tracer import Tracer
    from workloads import WORKLOADS

    scratch = root / ".perfbench-out" / "cli"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](dl, args.seed, scratch)
    tracer = Tracer(dl) if args.trace else None
    # the traced run traces its warm-up too, so that a table the warm-up
    # built counts as seen; its spans are dropped before the batch
    if tracer:
        tracer.install()
    try:
        warm_ok = wl.warm_up()
    finally:
        if tracer:
            tracer.uninstall()
            tracer.reset()
    if not warm_ok:
        raise SystemExit("warm-up op failed its correctness check")
    # set-up time is calibrated like op time; the kernel's first call in a
    # process runs cold and is left out
    reference_s()
    setup_scale = REF_NOMINAL_S / statistics.median(
        reference_s() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"t_ready": time.perf_counter(),
                          "setup_scale": setup_scale}))
        return

    if tracer:
        t_first, rec = traced_batch(wl, tracer, args.seconds)
        spans_path = (root / ".perfbench-out"
                      / f"{args.workload}-spans.json")
        names = sorted({span[0] for span in tracer.spans})
        index = {name: k for k, name in enumerate(names)}
        spans_path.write_text(json.dumps(
            {"names": names,
             "spans": [(index[n], t0, t1, parent, exact)
                       for n, t0, t1, parent, exact in tracer.spans]},
            separators=(",", ":")))
        rec["spans_file"] = str(spans_path.relative_to(root))
    else:
        t_first, rec = untraced_batch(wl, args.seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec["peak_rss_mb"] = rss / 1024.0
    rec["t_ready"] = t_first
    rec["setup_scale"] = setup_scale
    rec["host"] = host_record()
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
