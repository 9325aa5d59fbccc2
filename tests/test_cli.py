"""End-to-end tests of the ``dyadlab`` command line driver.

Exit-code contract: 0 when every checked claim held, 2 when a run
falsified a claim, 1 for usage errors, 3 for a bug (from the console entry
point; ``main`` lets the exception propagate).
"""

import hashlib
import json
import time

import pytest

from dyadlab import cli
from dyadlab.cli import identity_battery, main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def load(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


# -- usage errors --------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--bogus", "3"])
    assert exc.value.code == 1


def test_bad_flag_value_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--depth", "ham"])
    assert exc.value.code == 1


def test_invalid_parameters_exit_1(tmp_path, capsys):
    # depth below the battery's minimum is caught, not a traceback
    assert run(tmp_path, "identities", "--depth", "1") == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("umd-probe", "--p", "0.5"),
    ("umd-probe", "--trials", "0"),
    ("scaling-study", "--k-max", "0"),
    ("schur-check", "--n", "0"),
    ("lambda-equivalence", "--trials", "0", "--martingale-trials", "0"),
    ("hilbert-demo", "--checkpoints", "250,many"),
    ("series-bound", "--poly-degree", "-1"),
    ("bellman-check", "--depth", "0"),
    ("bellman-check", "--depth", "7"),
    ("bellman-check", "--samples", "0"),
    ("scaling-study", "--trials", "0", "--k-max", "1", "--depth", "3"),
    ("identities", "--d", "0"),
    ("identities", "--trials", "0"),
    ("umd-probe", "--restarts", "0"),
    ("umd-probe", "--iters", "0"),
    ("scaling-study", "--restarts", "0", "--trials", "1", "--k-max", "1"),
    ("schur-check", "--trials", "0"),
    ("schur-check", "--sign-trials", "0"),
    ("schur-check", "--k", "-1"),
    ("lambda-equivalence", "--k", "-1"),
    ("lambda-equivalence", "--k", "0", "--martingale-trials", "0"),
    ("lemma51", "--depth", "-1"),
    ("lemma51", "--d", "-1"),
    ("lemma51", "--p", "1.0000001"),
    ("lemma51", "--p", "1e308"),
    ("bellman-check", "--f-max", "inf"),
    ("bellman-check", "--g-max", "inf"),
    ("bellman-check", "--F-max", "inf"),
    ("bellman-check", "--p", "inf"),
    ("series-bound", "--delta", "nan"),
    ("series-bound", "--delta", "inf"),
    ("series-bound", "--tol", "inf"),
    ("series-bound", "--tol", "-1", "--delta", "1.0"),
    ("hilbert-demo", "--tol", "nan"),
    ("hilbert-demo", "--tol", "-1"),
    ("hilbert-demo", "--tol", "inf"),
    ("identities", "--depth", "40"),
    ("lemma51", "--depth", "40"),
    ("lambda-equivalence", "--k", "40"),
    ("schur-check", "--k", "40"),
    ("schur-check", "--n", "1025"),
    ("umd-probe", "--d", "65"),
    ("scaling-study", "--depth", "20000", "--k-max", "1", "--trials", "1"),
])
def test_bad_parameter_values_exit_1(tmp_path, capsys, argv):
    # each is refused before any long computation
    start = time.perf_counter()
    assert run(tmp_path, *argv) == 1
    assert time.perf_counter() - start < 1.0
    assert "dyadlab: error" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [("1e200", "1e300"), ("1e-200", "1e-300")])
def test_bellman_check_refuses_grids_outside_the_float_range(tmp_path, capsys,
                                                             scale):
    """Powers that overflow, or gains that underflow, once passed vacuously
    (``snapped_min_slack: "inf"``, or a table of zeros)."""
    means, powers = scale
    assert run(tmp_path, "bellman-check", "--f-max", means, "--g-max", means,
               "--F-max", powers, "--G-max", powers) == 1
    assert "normal float range" in capsys.readouterr().err
    assert not (tmp_path / "bellman_check.json").exists()


def test_schur_check_refuses_large_k_before_any_probe(tmp_path, monkeypatch,
                                                      capsys):
    def probe(*args, **kwargs):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(cli, "rank_one_multiplier_check", probe)
    monkeypatch.setattr(cli, "sign_multiplier_check", probe)
    assert run(tmp_path, "schur-check", "--k", "12") == 1
    assert "k must be at most 10" in capsys.readouterr().err


def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch,
                                                   capsys):
    # a ValueError from inside a computation is a bug, not bad input: it
    # propagates with its traceback instead of exiting 1
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "series_bound", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(tmp_path, "series-bound")
    assert "dyadlab: error" not in capsys.readouterr().err


def test_entry_point_exits_3_on_a_bug(tmp_path, monkeypatch, capsys):
    """The console entry point prints a bug's traceback and exits 3, and
    keeps the usage-error and success codes of ``main``."""
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "series_bound", broken)
    assert cli.entry(["series-bound", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: internal failure" in err
    assert "dyadlab: error" not in err
    assert cli.entry(["schur-check", "--k", "11",
                      "--out", str(tmp_path)]) == 1
    assert "dyadlab: error" in capsys.readouterr().err
    assert cli.entry(["identities", "--depth", "3", "--trials", "1",
                      "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", [
    name for name, (_, _, options) in cli._COMMANDS.items()
    if any(option[0] == "seed" for option in options)])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, source):
    """A negative seed once reached ``SeedSequence``, whose ValueError
    ended the run with a traceback."""
    if source == "flag":
        argv = ("--seed", "-1")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv = ("--config", str(cfg))
    assert run(tmp_path, command, *argv) == 1
    assert ("dyadlab: error: seed must be at least 0, got -1"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.json"))


# -- config files --------------------------------------------------------


def test_config_overrides_default_and_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth = 3   # comment\n\ntrials = 2\n")
    assert run(tmp_path, "identities", "--config", str(cfg)) == 0
    report = load(tmp_path, "identities.json")
    assert report["depth"] == 3 and report["trials"] == 2

    assert run(tmp_path, "identities", "--config", str(cfg),
               "--depth", "2") == 0
    report = load(tmp_path, "identities.json")
    assert report["depth"] == 2 and report["trials"] == 2


def test_config_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("depth = 3\nwidgets = 9\n")
    assert run(tmp_path, "identities", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err and "widgets" in err


def test_config_malformed_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert run(tmp_path, "identities", "--config", str(cfg)) == 1
    assert "bad.cfg:1" in capsys.readouterr().err


def test_config_bad_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("depth = eels\n")
    assert run(tmp_path, "identities", "--config", str(cfg)) == 1
    assert "bad.cfg:1" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path):
    assert run(tmp_path, "identities", "--config",
               str(tmp_path / "nope.cfg")) == 1


def test_cached_parser_keeps_no_option_between_calls(tmp_path):
    """``main`` builds its parser once per process; no option of one call
    may reach a later one."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth = 3\ntrials = 2\nseed = 5\n")
    runs = {"config": ["identities", "--config", str(cfg)],
            "plain": ["identities", "--trials", "1"]}

    def report(name, argv):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return (out / "identities.json").read_bytes()

    fresh = {}
    for key, argv in runs.items():
        cli._build_parser.cache_clear()
        fresh[key] = report(f"fresh-{key}", argv)
    assert report("config-then", runs["config"]) == fresh["config"]
    assert report("plain-after-config", runs["plain"]) == fresh["plain"]
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--bogus", "3"])
    assert exc.value.code == 1
    assert report("plain-after-bad-flag", runs["plain"]) == fresh["plain"]
    assert report("config-after-bad-flag", runs["config"]) == fresh["config"]
    assert cli._build_parser.cache_info().misses == 1


# -- report files --------------------------------------------------------


def test_identities_passes_and_reports(tmp_path, capsys):
    assert run(tmp_path, "identities", "--depth", "3", "--trials", "2") == 0
    out = capsys.readouterr().out
    assert out.startswith("identities: PASS")
    assert "report:" in out
    report = load(tmp_path, "identities.json")
    assert report["all_passed"] is True
    names = set(report["checks"][0]) - {"trial"}
    assert {"haar_roundtrip", "parseval_pairing", "transform_involution",
            "factor4_per_interval", "paraproduct_decomposition",
            "slice_partition", "adjoint_pairing",
            "slice_bilinear_majorant"} == names


def test_identity_battery_vector_valued():
    report = identity_battery(seed=1, depth=3, trials=2, d=2)
    assert report["all_passed"]
    # scalar-only checks are skipped for d > 1
    assert "paraproduct_decomposition" not in report["checks"][0]


def test_factor4_check_fails_on_a_wrong_coefficient(tmp_path, monkeypatch):
    """The factor-4 check reads the coefficients of ``haar_expand``, so one
    wrong coefficient falsifies it."""
    expand = cli.haar_expand

    def doubled_root(f):
        mean, levels = expand(f)
        levels[0] = 2 * levels[0]
        return mean, levels

    assert identity_battery(seed=0, depth=3, trials=1)["all_passed"]
    monkeypatch.setattr(cli, "haar_expand", doubled_root)
    report = identity_battery(seed=0, depth=3, trials=1)
    assert report["checks"][0]["factor4_per_interval"] is False
    assert run(tmp_path, "identities", "--depth", "3", "--trials", "1") == 2


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["umd-probe", "--depth", "3", "--trials", "2",
                     "--restarts", "2", "--iters", "30",
                     "--out", str(out)]) == 0
    assert (a / "umd_probe.json").read_bytes() == \
        (b / "umd_probe.json").read_bytes()


def test_out_env_variable_is_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYADLAB_OUT", str(tmp_path / "envdir"))
    assert main(["series-bound", "--delta", "0.4"]) == 0
    assert (tmp_path / "envdir" / "series_bound.json").exists()
    assert str(tmp_path / "envdir") in capsys.readouterr().out


# -- subcommand behaviour ------------------------------------------------


def test_schur_check_passes(tmp_path):
    assert run(tmp_path, "schur-check", "--n", "6", "--trials", "2",
               "--k", "2", "--sign-trials", "2") == 0
    report = load(tmp_path, "schur_check.json")
    assert report["rank_one"]["ok"] and report["sign_matrices"]["ok"]


def test_lambda_equivalence_size_two_ratio_is_sixteen(tmp_path):
    assert run(tmp_path, "lambda-equivalence", "--k", "1", "--trials", "2",
               "--martingale-trials", "1", "--restarts", "4",
               "--iters", "100") == 0
    report = load(tmp_path, "lambda_equivalence.json")
    assert report["ratio_min"] == pytest.approx(16.0, rel=1e-6)
    assert report["ratio_max"] == pytest.approx(16.0, rel=1e-6)


def test_bellman_check_passes_with_frozen_values(tmp_path):
    assert run(tmp_path, "bellman-check", "--n", "9", "--depth", "2",
               "--samples", "50") == 0
    report = load(tmp_path, "bellman_check.json")
    assert report["checks"]["depth1_frozen"] is True
    assert report["frozen"]["depth1_value"] == 4.0
    assert report["frozen"]["dirac_value"] == 0.0
    assert report["grid_min_slack"] >= 0.0


def test_bellman_check_refuses_grids_without_snapped_centres(tmp_path,
                                                             capsys):
    """With 3 points per axis the snapped check once died in numpy
    (``high - low < 0``)."""
    assert run(tmp_path, "bellman-check", "--n", "3") == 1
    assert ("dyadlab: error: snapped check: n_f = 3 leaves no centres"
            in capsys.readouterr().err)
    assert not (tmp_path / "bellman_check.json").exists()


@pytest.mark.parametrize("argv", [("--f-max", "3"),
                                  ("--f-max", "3", "--n", "5")])
def test_bellman_check_without_unit_means_is_bounded(tmp_path, argv):
    """With f_max = 3 the f axis misses +-1 (steps 0.375 and 1.5), so the
    depth-1 value at (0, 1, 0, 1) is only bounded by 4, not equal to it."""
    assert run(tmp_path, "bellman-check", *argv) == 0
    report = load(tmp_path, "bellman_check.json")
    assert report["checks"]["depth1_bounded"] is True
    assert "depth1_frozen" not in report["checks"]
    assert report["frozen"]["depth1_value"] < 4.0


def test_lemma51_default_run_passes(tmp_path, capsys):
    assert run(tmp_path, "lemma51") == 0
    report = load(tmp_path, "lemma51.json")
    assert report["meets_threshold"] is True
    assert report["identity_ok"] and report["theta_ok"]
    assert "achieved_c" in capsys.readouterr().out


# sha256 of the lemma51 report: the default exact tree, and float trees at
# p = 2, at p = 3, and with two-dimensional values at k = 2; recorded with
# the separate float and exact tree bodies
LEMMA51_REPORT_SHA256 = {
    (): "7e4c6e4133da49bbac5c7e2718e0818c4acf95f519c99035e70d0c7200989629",
    ("--exact", "false"):
        "9985eb6fdc35cd9e3ece0573a6e5b397c479588b85cc63a0eba0c07fd38e33bb",
    ("--exact", "false", "--p", "3"):
        "75f05a3de12faa2baf300524d7b1da1acf218a3cb0ea42bc0fc62e00b755fc81",
    ("--exact", "false", "--d", "2", "--k", "2"):
        "0dfff5c68be6ef70de7d22499ab0097659d40102c9f7fe1d501ee57ae655a810",
}


@pytest.mark.parametrize("argv", sorted(LEMMA51_REPORT_SHA256))
def test_lemma51_report_bytes_are_frozen(tmp_path, argv):
    assert run(tmp_path, "lemma51", *argv) == 0
    digest = hashlib.sha256((tmp_path / "lemma51.json").read_bytes())
    assert digest.hexdigest() == LEMMA51_REPORT_SHA256[argv]


@pytest.mark.parametrize("argv, message", [
    (("--k", "7", "--depth", "7"),
     "cell depth 7 needs an oracle depth above the table cap of 6"),
    (("--k", "5", "--depth", "7", "--bellman-depth", "4"),
     "bellman_depth must be at least the cell depth"),
])
def test_lemma51_refuses_a_shallow_oracle_before_the_search(tmp_path, capsys,
                                                            argv, message):
    """The oracle depth is checked before the modulation search, which
    takes seconds at k = 7."""
    start = time.perf_counter()
    assert run(tmp_path, "lemma51", *argv) == 1
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", ["1.0000001", "1e308"])
def test_lemma51_refuses_overflowing_leaf_powers_on_one_line(tmp_path, capsys,
                                                             p):
    """Leaf powers that overflow are refused with the error line alone: no
    numpy ``RuntimeWarning`` comes first (it is an error here)."""
    assert run(tmp_path, "lemma51", "--p", p) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dyadlab: error")
    assert "not finite floats" in err[0]


def test_umd_probe_passes(tmp_path):
    assert run(tmp_path, "umd-probe", "--depth", "3", "--trials", "2",
               "--restarts", "2", "--iters", "30") == 0
    report = load(tmp_path, "umd_probe.json")
    assert report["within_reference"] is True
    assert report["best_lower"] <= 3.0 + 1e-6


def test_scaling_study_small_run_writes_csv(tmp_path):
    assert run(tmp_path, "scaling-study", "--k-max", "2", "--depth", "4",
               "--trials", "2", "--restarts", "2", "--iters", "30") == 0
    report = load(tmp_path, "scaling_study.json")
    assert [row["k"] for row in report["rows"]] == [1, 2]
    csv = (tmp_path / "scaling_study.csv").read_text()
    assert csv.startswith("k,m,n,max_lower,implied_c\n")


def test_hilbert_demo_passes(tmp_path):
    assert run(tmp_path, "hilbert-demo") == 0
    report = load(tmp_path, "hilbert_demo.json")
    assert report["accepted"] is True
    assert report["seed"] == 6


def test_series_bound_divergent_regime_passes(tmp_path):
    assert run(tmp_path, "series-bound", "--delta", "0.4") == 0
    report = load(tmp_path, "series_bound.json")
    assert report["verdict"] == "divergent"


def test_series_bound_default_terms_do_not_stabilize(tmp_path):
    # convergent verdict but the partial sums still move at k_max=60,
    # so the stabilization claim is (honestly) reported as failed
    assert run(tmp_path, "series-bound") == 2
    report = load(tmp_path, "series_bound.json")
    assert report["verdict"] == "convergent"
    assert report["stabilized"] is False
    assert report["last_term"] > report["tolerance"]


def test_series_bound_fast_decay_stabilizes(tmp_path):
    assert run(tmp_path, "series-bound", "--delta", "1.0",
               "--k-max", "200") == 0
    report = load(tmp_path, "series_bound.json")
    assert report["stabilized"] is True
    assert report["last_term"] <= 1e-6
