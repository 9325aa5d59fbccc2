"""Command line interface.

Each subcommand runs a falsification battery or an experiment, writes one
deterministic JSON report into the output directory, and exits with

* 0 when every checked claim held,
* 2 when a mathematical claim was falsified by the run,
* 1 on usage errors (bad flags, malformed or unknown config keys,
  parameters rejected with ``DyadicError``),
* 3 on a bug: any other exception.  :func:`main` lets it propagate; the
  console entry point (:func:`entry`, also ``python -m dyadlab.cli``)
  prints its traceback and exits 3, so a bug never looks like a usage
  error or a falsified claim.

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags override the file, which overrides built-in defaults.  The
output directory defaults to ``$DYADLAB_OUT`` or ``./dyadlab-out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bellman import (MAX_TABLE_DEPTH, THETA_ASSERTED_RANGE, BellmanConfig,
                      bellman_oracle, concavity_gain_check, lemma51_verify,
                      range_check, tree_from_functions)
from .dyadic import DyadicError, sample_system
from .exact import Sqrt2Rational
from .schur import (equivalence_report, lambda_matrix,
                    random_admissible_lambda, rank_one_multiplier_check,
                    sign_multiplier_check)
from .shifts import (apply_shift, paraproduct, paraproduct_adjoint,
                     random_extremal_shift, series_bound, shift_slice,
                     slice_bilinear_sides, symmetrize)
from .signal import (SpaceSpec, _common, _equal, _numerators, _pow2,
                     _product, _row_dots, haar_expand, haar_reconstruct,
                     pairing_integral, pointwise_product,
                     random_step_function)
from .normlab import hilbert_demo, shift_scaling_study, umd_probe

__all__ = ["main", "identity_battery"]

_BILINEAR_TOL = 1e-9
_IDENTITY_TOL = 1e-9
# Largest schur-check --k, and 2**k the largest --n: one n x n SVD probe took
# 18 s at n = 1024 on a 2-core machine (the default run probes 4 sign
# matrices), and each step of k costs 5 to 7 times more.
_MAX_SIGN_K = 10


class UsageError(Exception):
    pass


# -- exact identity battery ---------------------------------------------


def _coefficient_levels(mean, levels):
    """Integer forms of what :func:`haar_expand` returned: the window mean
    as one row, then each level."""
    return [_numerators(np.reshape(mean, (1, -1)))] + [_numerators(level)
                                                      for level in levels]


def _total(terms):
    """The sum of every value of the integer forms ``terms``."""
    terms, (top, den) = _common(terms)
    a = Fraction(sum(int(t.a.sum()) for t in terms) * top, den)
    b = Fraction(sum(int(t.b.sum()) for t in terms if t.b is not None) * top,
                 den)
    return Sqrt2Rational._new(a, b) if b else a


def _equal_magnitudes(x, y):
    """Whether ``|x| == |y|`` entrywise, that is ``x == +-y``."""
    (x, y), _ = _common([x, y])
    xb, yb = x.b_or_zeros(), y.b_or_zeros()
    return bool((((x.a == y.a) & (xb == yb))
                 | ((x.a == -y.a) & (xb == -yb))).all())


def identity_battery(seed=0, depth=4, window_exp=0, trials=3, d=1):
    """Exact structural identities on random windows and functions.

    Every check below is an algebraic identity of the finite window and is
    evaluated in exact arithmetic (scalar checks also cover shift slices and
    paraproducts); any failure falsifies the implementation or the identity.
    """
    if depth < 2:
        raise UsageError("identity battery needs depth >= 2")
    if d < 1:
        raise UsageError("identity battery needs d >= 1")
    if trials < 1:
        raise UsageError("identity battery needs at least one trial")
    checks = []
    all_ok = True
    for trial in range(trials):
        system = sample_system((seed, trial), depth, M=window_exp)
        f = random_step_function(system, seed=(seed, trial, 1), d=d,
                                 exact=True)
        g = random_step_function(system, seed=(seed, trial, 2), d=d,
                                 exact=True)
        sigma = random_extremal_shift(system, 0, 0, seed=(seed, trial, 3))
        results = {}

        mean_f, coeffs_f = haar_expand(f)
        results["haar_roundtrip"] = (
            haar_reconstruct(system, mean_f, coeffs_f) == f)

        levels_f = _coefficient_levels(mean_f, coeffs_f)
        levels_g = _coefficient_levels(*haar_expand(g))
        # |window| <mean_f, mean_g> plus every coefficient pairing
        terms = [_row_dots(levels_f[0], levels_g[0], _pow2(system.M))]
        terms += [_row_dots(x, y, (1, 1)) for x, y in zip(levels_f[1:],
                                                     levels_g[1:])]
        results["parseval_pairing"] = (pairing_integral(f, g)
                                       == _total(terms))

        twice = apply_shift(sigma, apply_shift(sigma, f))
        # every leaf of f - twice is the window mean of f
        results["transform_involution"] = _equal(
            (f - twice)._num, f._means[0])

        # |I| |<jump_f, jump_g>| == 4 |<c_f, c_g>| on every interval I
        results["factor4_per_interval"] = all(
            _equal_magnitudes(
                _row_dots(jumps_f, jumps_g, _pow2(system.M - lev)),
                _row_dots(levels_f[lev + 1], levels_g[lev + 1], (4, 1)))
            for lev, (jumps_f, jumps_g) in enumerate(zip(f._jumps,
                                                         g._jumps)))

        if d == 1:
            phi = random_step_function(system, seed=(seed, trial, 4), d=1,
                                       exact=True)
            total = (paraproduct(phi, f) + paraproduct_adjoint(phi, f)
                     + paraproduct(f, phi))
            rem = pointwise_product(phi, f) - total
            # every leaf of rem is the product of the window means
            results["paraproduct_decomposition"] = _equal(
                rem._num, _product(phi._means[0], f._means[0]))

            shift = random_extremal_shift(system, 0, 1,
                                          seed=(seed, trial, 5))
            out = apply_shift(shift, f)
            part_sum = None
            for j in range(shift.complexity):
                part = apply_shift(shift_slice(shift, j), f)
                part_sum = part if part_sum is None else part_sum + part
            results["slice_partition"] = (part_sum == out)
            results["adjoint_pairing"] = (
                pairing_integral(out, g)
                == pairing_integral(f, apply_shift(shift.adjoint(), g)))

            sym = symmetrize(shift)
            ok_b = True
            for j in range(sym.complexity):
                lhs_b, rhs_b = slice_bilinear_sides(sym, j, f, g)
                ok_b = ok_b and lhs_b <= rhs_b + _BILINEAR_TOL * max(
                    1.0, abs(rhs_b))
            results["slice_bilinear_majorant"] = ok_b

        checks.append({"trial": trial,
                       **{k: bool(v) for k, v in results.items()}})
        all_ok = all_ok and all(results.values())
    return {"seed": seed, "depth": depth, "window_exp": window_exp,
            "d": d, "trials": trials, "checks": checks,
            "all_passed": bool(all_ok)}


# -- command implementations --------------------------------------------
# Each returns ``(ok, report, summary)``; ``main`` records ``ok`` as the
# report's ``all_passed`` and maps it to the exit code.


def _cmd_identities(opts, outdir):
    report = identity_battery(seed=opts["seed"], depth=opts["depth"],
                              window_exp=opts["window_exp"],
                              trials=opts["trials"], d=opts["d"])
    return report["all_passed"], report, (
        f"{opts['trials']} trials, all identities hold: "
        f"{report['all_passed']}")


def _cmd_schur_check(opts, outdir):
    if opts["k"] > _MAX_SIGN_K:
        raise UsageError(f"k must be at most {_MAX_SIGN_K}: the sign-matrix "
                         "probe costs 5 to 7 times more per step")
    if opts["n"] > 2 ** _MAX_SIGN_K:
        raise UsageError(f"n must be at most {2 ** _MAX_SIGN_K}: the rank-one "
                         "probe runs the same n x n SVD as the sign matrices")
    rank_one = rank_one_multiplier_check(opts["n"], trials=opts["trials"],
                                         seed=opts["seed"])
    signs = sign_multiplier_check(opts["k"], trials=opts["sign_trials"],
                                  seed=opts["seed"])
    ok = rank_one["ok"] and signs["ok"]
    report = {"rank_one": rank_one, "sign_matrices": signs}
    return ok, report, (
        f"rank-one ok: {rank_one['ok']}, sign-matrix ceiling ok: "
        f"{signs['ok']}")


def _cmd_lambda_equivalence(opts, outdir):
    rows = []
    ok = True
    ratios = []
    for t in range(opts["trials"]):
        lam = random_admissible_lambda(opts["k"], seed=(opts["seed"], t))
        rep = equivalence_report(lam, restarts=opts["restarts"],
                                 iters=opts["iters"],
                                 seed=(opts["seed"], t, 1))
        rows.append({"source": "random", "trial": t, **rep})
        ok = ok and rep["lower_ok"] and rep["upper_ok"]
        ratios.append(rep["ratio"])
    for t in range(opts["martingale_trials"]):
        system = sample_system((opts["seed"], 500 + t), opts["k"])
        f = random_step_function(system, seed=(opts["seed"], 600 + t),
                                 exact=True)
        g = random_step_function(system, seed=(opts["seed"], 700 + t),
                                 exact=True)
        tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
        lam = lambda_matrix(tree, opts["k"])
        rep = equivalence_report(lam, restarts=opts["restarts"],
                                 iters=opts["iters"],
                                 seed=(opts["seed"], t, 2))
        rows.append({"source": "martingale", "trial": t, **rep})
        if lam.abs_sum() != 0:
            ok = ok and rep["lower_ok"] and rep["upper_ok"]
            ratios.append(rep["ratio"])
    if not ratios:
        raise UsageError("no non-degenerate matrix was drawn; raise --trials")
    report = {"k": opts["k"], "rows": rows,
              "ratio_min": min(ratios), "ratio_max": max(ratios)}
    return ok, report, (
        f"ratios in [{report['ratio_min']:.3f}, {report['ratio_max']:.3f}], "
        f"16 <= ratio <= 192 everywhere: {ok}")


def _cmd_bellman_check(opts, outdir):
    config = BellmanConfig(p=opts["p"], f_max=opts["f_max"],
                           F_max=opts["F_max"], g_max=opts["g_max"],
                           G_max=opts["G_max"], n_f=opts["n"],
                           n_F=opts["n"], n_g=opts["n"], n_G=opts["n"])
    depth = opts["depth"]
    if not 1 <= depth <= MAX_TABLE_DEPTH:
        raise UsageError(f"depth must lie in 1..{MAX_TABLE_DEPTH}")
    if opts["samples"] < 1:
        raise UsageError("samples must be at least 1")
    table = bellman_oracle(config, depth=depth)
    checks = {}
    mono = True
    for t in range(depth):
        mono = mono and bool(np.all(table.layer(t + 1) >= table.layer(t)))
    checks["monotone_in_depth"] = mono
    checks["range"] = all(range_check(table, t)["ok"]
                          for t in range(depth + 1))
    grid = concavity_gain_check(table, depth - 1, n_samples=opts["samples"],
                                seed=opts["seed"], snapped=False)
    checks["concavity_grid"] = bool(grid["min_slack"] >= 0.0)
    snapped = concavity_gain_check(table, depth - 1,
                                   n_samples=opts["samples"],
                                   seed=opts["seed"], snapped=True)
    checks["concavity_snapped"] = bool(
        snapped["min_slack"] >= -snapped["allowance"])
    frozen = {}
    if opts["p"] == 2.0:
        probe = table.evaluate(1, (0.0, 1.0, 0.0, 1.0), bump_feasible=False)
        if probe["snap_distance"] == 0.0:
            frozen["depth1_value"] = probe["value"]
            # 4.0 is the split to (-1, 1) and (1, 1) on both planes; a grid
            # without +-1 on a mean axis only stays below it
            if all(np.isin((-1.0, 1.0), axis).all()
                   for axis in (table.fs, table.gs)):
                checks["depth1_frozen"] = bool(probe["value"] == 4.0)
            else:
                checks["depth1_bounded"] = bool(probe["value"] <= 4.0)
        dirac = table.evaluate(depth, (1.0, 1.0, 0.0, config.G_max),
                               bump_feasible=False)
        if dirac["snap_distance"] == 0.0:
            frozen["dirac_value"] = dirac["value"]
            checks["dirac_zero"] = bool(dirac["value"] == 0.0)
    ok = all(checks.values())
    report = {"config": {"p": config.p, "f_max": config.f_max,
                         "F_max": config.F_max, "g_max": config.g_max,
                         "G_max": config.G_max, "n": opts["n"]},
              "depth": depth, "checks": checks, "frozen": frozen,
              "grid_min_slack": grid["min_slack"],
              "snapped_min_slack": snapped["min_slack"]}
    return ok, report, f"checks {checks}"


def _cmd_lemma51(opts, outdir):
    system = sample_system((opts["seed"], 0), opts["depth"],
                           M=opts["window_exp"])
    f = random_step_function(system, seed=(opts["seed"], 1), d=opts["d"],
                             exact=opts["exact"])
    g = random_step_function(system, seed=(opts["seed"], 2), d=opts["d"],
                             exact=opts["exact"])
    space = SpaceSpec(p=opts["p"], d=opts["d"])
    report = lemma51_verify(f, g, space, k=opts["k"],
                            bellman_depth=opts["bellman_depth"] or None,
                            seed=(opts["seed"], 3))
    identity_ok = (report["identity_exact"] if report["tree_exact"]
                   else report["identity_error"] <= _IDENTITY_TOL)
    lo, hi = THETA_ASSERTED_RANGE
    theta_ok = lo <= report["theta_min"] and report["theta_max"] <= hi
    report["identity_ok"] = bool(identity_ok)
    report["theta_ok"] = bool(theta_ok)
    ok = identity_ok and theta_ok and report["meets_threshold"]
    c_emp = report.get("c_emp")
    c_msg = "degenerate" if c_emp is None else f"{c_emp:.4g}"
    return ok, report, (
        f"achieved_c={report['achieved_c']:.4g} "
        f"(threshold {report['threshold']:.4g}), empirical drop constant: "
        f"{c_msg}")


def _cmd_umd_probe(opts, outdir):
    report = umd_probe(depth=opts["depth"], p=opts["p"], q=opts["q"],
                       d=opts["d"], trials=opts["trials"],
                       seed=opts["seed"], restarts=opts["restarts"],
                       iters=opts["iters"])
    ref = report["beta_ref"]
    ref_msg = "none" if ref is None else f"{ref:.3f}"
    return report["within_reference"] is not False, report, (
        f"best lower {report['best_lower']:.6f}, reference {ref_msg}, "
        f"duality gap {report['duality_gap']:.2e}")


def _cmd_scaling_study(opts, outdir):
    study = shift_scaling_study(
        k_values=tuple(range(1, opts["k_max"] + 1)), depth=opts["depth"],
        p=opts["p"], trials=opts["trials"], seed=opts["seed"],
        restarts=opts["restarts"], iters=opts["iters"])
    csv_path = outdir / "scaling_study.csv"
    csv_path.write_text(study.to_csv())
    report = study.to_json_dict()
    report["csv"] = str(csv_path)
    return study.within_factor_10, report, (
        f"fitted_c={study.fitted_c:.4g}, homogeneity ratio "
        f"{study.homogeneity_ratio:.2f} (within 10x: "
        f"{study.within_factor_10})")


def _cmd_hilbert_demo(opts, outdir):
    try:
        checkpoints = tuple(int(x) for x in opts["checkpoints"].split(","))
    except ValueError as exc:
        raise UsageError(f"checkpoints: {exc}")
    report = hilbert_demo(checkpoints=checkpoints, seed=opts["seed"],
                          M=opts["window_exp"], depth=opts["depth"],
                          residual_tol=opts["tol"])
    return report["accepted"], report, (
        f"fitted scale {report['c_star']:.6f}, final residual "
        f"{report['final_residual']:.4f} (tol {opts['tol']})")


def _cmd_series_bound(opts, outdir):
    tol = opts["tol"]
    if not 0 <= tol < math.inf:
        raise UsageError(f"tol must lie in [0, inf), got {tol}")
    report = series_bound(opts["delta"], poly_degree=opts["poly_degree"],
                          k_max=opts["k_max"])
    stabilized = (report["last_term"] <= tol
                  and report["tail_bound"] <= tol)
    report["tolerance"] = tol
    report["stabilized"] = bool(stabilized)
    ok = report["verdict"] == "divergent" or stabilized
    return ok, report, (
        f"verdict {report['verdict']} (ratio {report['limit_ratio']:.4f}), "
        f"stabilized within {tol:g}: {stabilized}")


# -- option plumbing ----------------------------------------------------


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in {"1", "true", "yes", "on"}:
        return True
    if low in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"not a boolean: {text!r}")


_COMMANDS = {
    "identities": (_cmd_identities, "exact window/shift identity battery", [
        ("seed", int, 0, "master seed"),
        ("depth", int, 4, "window depth"),
        ("window_exp", int, 0, "window length exponent"),
        ("trials", int, 3, "independent random trials"),
        ("d", int, 1, "value dimension"),
    ]),
    "schur-check": (_cmd_schur_check, "multiplier norm bound checks", [
        ("seed", int, 0, "master seed"),
        ("n", int, 8, "rank-one matrix size"),
        ("k", int, 3, "sign-matrix size exponent"),
        ("trials", int, 6, "rank-one trials"),
        ("sign_trials", int, 4, "sign-matrix trials"),
    ]),
    "lambda-equivalence": (_cmd_lambda_equivalence,
                           "two-norm equivalence on admissible matrices", [
        ("seed", int, 0, "master seed"),
        ("k", int, 2, "cell depth (matrix size 2**k)"),
        ("trials", int, 10, "random admissible matrices"),
        ("martingale_trials", int, 4, "matrices from random function pairs"),
        ("restarts", int, 32, "ascent restarts (sizes above 8 only)"),
        ("iters", int, 400, "ascent iterations (sizes above 8 only)"),
    ]),
    "bellman-check": (_cmd_bellman_check, "grid oracle invariants", [
        ("seed", int, 0, "master seed"),
        ("depth", int, 3, "table depth"),
        ("n", int, 17, "grid points per axis"),
        ("p", float, 2.0, "exponent"),
        ("f_max", float, 2.0, "mean axis half-width (first function)"),
        ("F_max", float, 4.0, "power axis maximum (first function)"),
        ("g_max", float, 2.0, "mean axis half-width (second function)"),
        ("G_max", float, 4.0, "power axis maximum (second function)"),
        ("samples", int, 200, "concavity sample count"),
    ]),
    "lemma51": (_cmd_lemma51, "cell-decomposition yield check", [
        ("seed", int, 0, "master seed"),
        ("depth", int, 4, "window depth"),
        ("window_exp", int, 0, "window length exponent"),
        ("k", int, 1, "cell depth"),
        ("d", int, 1, "value dimension"),
        ("p", float, 2.0, "exponent"),
        ("exact", bool, True, "use exact random functions"),
        ("bellman_depth", int, 0, "oracle depth (0 = automatic)"),
    ]),
    "umd-probe": (_cmd_umd_probe, "martingale transform norm probe", [
        ("seed", int, 0, "master seed"),
        ("depth", int, 6, "window depth"),
        ("p", float, 4.0, "outer exponent"),
        ("q", float, 2.0, "inner exponent"),
        ("d", int, 1, "value dimension"),
        ("trials", int, 12, "sign sequences"),
        ("restarts", int, 4, "power-iteration restarts"),
        ("iters", int, 80, "power-iteration steps"),
    ]),
    "scaling-study": (_cmd_scaling_study, "norm growth against complexity", [
        ("seed", int, 0, "master seed"),
        ("depth", int, 8, "window depth"),
        ("p", float, 4.0, "exponent"),
        ("k_max", int, 5, "largest complexity"),
        ("trials", int, 50, "shifts per complexity"),
        ("restarts", int, 3, "power-iteration restarts"),
        ("iters", int, 60, "power-iteration steps"),
    ]),
    "hilbert-demo": (_cmd_hilbert_demo, "translation averaging demo", [
        ("seed", int, 6, "master seed (pinned to a monotone substream)"),
        ("window_exp", int, 5, "window length exponent"),
        ("depth", int, 10, "window depth"),
        ("checkpoints", str, "250,500,1000,2000",
         "comma-separated sample checkpoints"),
        ("tol", float, 0.1, "relative residual tolerance"),
    ]),
    "series-bound": (_cmd_series_bound, "complexity series partial sums", [
        ("delta", float, 0.75, "decay exponent"),
        ("poly_degree", int, 2, "polynomial factor degree"),
        ("k_max", int, 60, "last partial sum index"),
        ("tol", float, 1e-6, "stabilisation tolerance"),
    ]),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    """The argparse tree, built on the first call and shared by later ones
    (parsing keeps no state between calls)."""
    parser = _Parser(prog="dyadlab",
                     description="dyadic window experiment driver")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (func, help_, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.add_argument("--config", default=None,
                        help="flat key = value option file")
        sp.add_argument("--out", default=None,
                        help="output directory (default $DYADLAB_OUT "
                             "or ./dyadlab-out)")
        for opt_name, typ, default, h in options:
            arg_type = _parse_bool if typ is bool else typ
            sp.add_argument(f"--{opt_name.replace('_', '-')}",
                            dest=opt_name, type=arg_type, default=None,
                            help=f"{h} (default: {default})")
        sp.set_defaults(_func=func, _options=options, _name=name)
    return parser


def _read_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip(), lineno))
    return pairs


def _merge_options(args):
    spec = {name: (typ, default) for name, typ, default, _ in args._options}
    merged = {name: default for name, (_, default) in spec.items()}
    if args.config:
        for key, value, lineno in _read_config(args.config):
            if key not in spec:
                raise UsageError(
                    f"{args.config}:{lineno}: unknown option {key!r} for "
                    f"command {args._name!r}")
            typ = spec[key][0]
            try:
                merged[key] = (_parse_bool(value) if typ is bool
                               else typ(value))
            except ValueError as exc:
                raise UsageError(f"{args.config}:{lineno}: {exc}")
    for name in spec:
        given = getattr(args, name)
        if given is not None:
            merged[name] = given
    if merged.get("seed", 0) < 0:
        raise UsageError(f"seed must be at least 0, got {merged['seed']}")
    return merged


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else repr(val)
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def _write_report(outdir, name, report):
    path = outdir / f"{name.replace('-', '_')}.json"
    payload = json.dumps(_jsonify(report), indent=2, sort_keys=True)
    path.write_text(payload + "\n")
    return path


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "_func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        opts = _merge_options(args)
        outdir = Path(args.out or os.environ.get("DYADLAB_OUT")
                      or "dyadlab-out")
        outdir.mkdir(parents=True, exist_ok=True)
        ok, report, summary = args._func(opts, outdir)
        report["all_passed"] = bool(ok)
        path = _write_report(outdir, args._name, report)
    except (UsageError, DyadicError) as exc:
        # bad options or parameters; any other exception is a bug and
        # surfaces with its traceback
        print(f"dyadlab: error: {exc}", file=sys.stderr)
        return 1
    print(f"{args._name}: {'PASS' if ok else 'FAIL'} ({summary})")
    print(f"report: {path}")
    return 0 if ok else 2


def entry(argv=None):
    """The console entry point: :func:`main`, with a bug mapped to exit
    code 3 after its traceback.  ``main`` turns usage errors into exit code
    1 itself, so any exception that reaches this wrapper is a bug."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(entry())
