"""End-to-end runs of the config-driven command line."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mfbsde import (
    CATALOG,
    BlowUpError,
    case_zero,
    compute_ledger,
    make_case,
    sup_norm_estimate,
    verify_apriori,
)
from mfbsde import cli
from mfbsde.cli import _fmt, _load_config, main

from conftest import pair_from_fields


def write_cfg(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


ZERO_FAST = """
    [case]
    name = zero

    [grid]
    m = 10

    [ensemble]
    n = 200
    seed = 1

    [checks]
    samples = 500
"""


# ---------------------------------------------------------------- constants


def test_constants_emits_ledger_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_FAST)
    assert main(["constants", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    expect = compute_ledger(case_zero().params).to_dict()
    for key in ("c_dkn", "k1", "k2", "eps0", "c3", "lambda", "t_lambda"):
        assert doc[key] == expect[key]
    assert set(doc["formulas"]) == set(expect)
    assert any("proxies" in c for c in doc["caveats"])
    assert "degenerate_fields" not in doc


def test_constants_reports_degenerate_step(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[case]\nname = loggrowth\n")
    assert main(["constants", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t_lambda"] == 0.0
    assert doc["degenerate_fields"] == ["t_lambda"]


# -------------------------------------------------------------------- check


def test_check_passes_catalog_case(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_FAST)
    assert main(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for label in ("H1", "H2", "H4"):
        assert label in out
    assert "all structural checks passed" in out


# -------------------------------------------------------------------- solve


def test_solve_writes_report_csv_and_state(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_FAST)
    out = tmp_path / "runs"
    rc = main(["solve", "--config", cfg, "--out", str(out), "--save-state"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "apriori_sup: pass" in text and "bmo_membership: pass" in text
    assert "-> pass" in text

    report = json.loads((out / "zero_report.json").read_text())
    assert report["case"] == "zero"
    assert report["grid"] == {"M": 10, "T": 1.0, "dt": 0.1}
    assert report["ensemble"]["seed"] == 1
    assert report["oracle"]["y0_abs_err"] == 0.0
    assert all(v["passed"] for v in report["structural_checks"].values())
    assert report["solve"]["converged"] is True
    assert any("proxies" in c for c in report["caveats"])

    lines = (out / "zero_solution.csv").read_text().splitlines()
    assert lines[0] == "t,mean_Y1,sup_abs_Y,bmo_to_go,oracle_err_Y,oracle_err_Z"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first == ["0.0", "1.0", "1.0", "0.0", "0.0", "0.0"]
    assert lines[-1].split(",")[-1] == "nan"      # no Z at the terminal node

    with np.load(out / "zero_state.npz") as state:
        assert state["Y"].shape == (200, 11, 1)
        assert state["Z"].shape == (200, 10, 1, 1)
        assert int(state["seed"]) == 1
        assert np.array_equal(state["Y"], np.ones((200, 11, 1)))


def test_solve_oracle_y0_error_compares_vectors(tmp_path, capsys):
    # n = 2: both rows' mean Y0 sit near the exact 0.5; the norm of the mean
    # vector is not to be set against the value of one row
    cfg = write_cfg(tmp_path, """
        [case]
        name = colehopf
        n = 2

        [grid]
        m = 20

        [ensemble]
        n = 4000
        seed = 7

        [checks]
        samples = 500
        """)
    out = tmp_path / "runs"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    oracle = json.loads((out / "colehopf_report.json").read_text())["oracle"]
    assert oracle["y0_exact"] == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-15)
    assert oracle["y0_abs_err"] < 0.01
    lines = (out / "colehopf_solution.csv").read_text().splitlines()
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert oracle["y0_abs_err"] == pytest.approx(float(first["oracle_err_Y"]), rel=1e-12)


def test_solve_is_byte_deterministic(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        [case]
        name = colehopf

        [grid]
        m = 10

        [ensemble]
        n = 500
        seed = 3

        [checks]
        samples = 500
        """,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
    csv_a = (a / "colehopf_solution.csv").read_bytes()
    assert csv_a == (b / "colehopf_solution.csv").read_bytes()

    # a different seed must actually change the numbers
    c = tmp_path / "c"
    assert main(["solve", "--config", cfg, "--out", str(c), "--seed", "4"]) == 0
    assert csv_a != (c / "colehopf_solution.csv").read_bytes()


@pytest.fixture
def failing_apriori(monkeypatch):
    """Make every CLI solve report a failed a priori check."""
    import mfbsde.cli as cli

    solve_auto = cli.solve_auto

    def violating(*args, **kwargs):
        # the solved field inflated past lambda must fail the a priori check
        report = solve_auto(*args, **kwargs)
        lam = report.ledger.lam
        big = pair_from_fields(report.pair.Y * (1.01 * lam), report.pair.Z)
        apriori = verify_apriori(sup_norm_estimate(big.Y), report.ledger)
        report.checks = (apriori,) + report.checks[1:]
        return report

    monkeypatch.setattr(cli, "solve_auto", violating)


def test_solve_failed_check_exits_1(tmp_path, failing_apriori, capsys):
    cfg = write_cfg(tmp_path, ZERO_FAST)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "apriori_sup: FAIL" in out and "-> FAIL" in out
    report = json.loads((tmp_path / "r" / "zero_report.json").read_text())
    checks = {c["name"]: c for c in report["solve"]["checks"]}
    assert checks["apriori_sup"]["passed"] is False


def test_solve_writes_the_verification_bmo_profile(tmp_path, bmo_passes):
    # no BMO pass: each sweep's backward pass measures its profile,
    # verification reuses the last sweep's (one window over the whole grid)
    # and the CSV reuses the verification profile instead of a pass of its own
    cfg = write_cfg(
        tmp_path,
        "[case]\nname = loggrowth\n[grid]\nm = 10\n[ensemble]\nn = 300\nseed = 5\n"
        "[checks]\nsamples = 500\n",
    )
    out = tmp_path / "r"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "loggrowth_report.json").read_text())
    sweeps = report["solve"]["windows"][0]["iterations"]
    assert report["solve"]["mode"] == "full-interval-fallback" and sweeps >= 2
    assert len(bmo_passes) == 0
    lines = (out / "loggrowth_solution.csv").read_text().splitlines()
    col = lines[0].split(",").index("bmo_to_go")
    bmo = max(float(line.split(",")[col]) for line in lines[1:])
    checks = {c["name"]: c for c in report["solve"]["checks"]}
    assert checks["bmo_membership"]["observed"] == bmo * bmo


@pytest.mark.parametrize(
    "case, params, m, n, seed, windows",
    [("loggrowth", "", 10, 300, 5, 1), ("colehopf", "", 10, 300, 3, 1),
     ("meanfield_linear", "", 10, 300, 3, 1), ("colehopf", "n = 2\nT = 5\n", 30, 2000, 3, 3)],
    ids=["loggrowth", "colehopf", "meanfield_linear", "colehopf-3-windows"],
)
def test_solve_writes_the_per_node_sup_of_the_solution_bitwise(tmp_path, monkeypatch, case,
                                                               params, m, n, seed, windows):
    # the sup_abs_Y column is the report's sup profile, measured by the
    # sweeps (and joined at the seams of several windows), and is bitwise
    # the largest row norm of the solution's Y at each node
    reports = []
    solve = cli.solve_auto

    def recording(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "solve_auto", recording)
    cfg = write_cfg(
        tmp_path,
        f"[case]\nname = {case}\n{params}[grid]\nm = {m}\n[ensemble]\nn = {n}\n"
        f"seed = {seed}\n[checks]\nsamples = 500\n",
    )
    out = tmp_path / "r"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    (report,) = reports
    assert len(report.traces) == windows
    Y = report.pair.Y
    expect = np.sqrt((Y * Y).sum(axis=2)).max(axis=0)
    assert np.array_equal(report.sup_nodes, expect)
    lines = (out / f"{case}_solution.csv").read_text().splitlines()
    col = lines[0].split(",").index("sup_abs_Y")
    assert [line.split(",")[col] for line in lines[1:]] == [_fmt(v) for v in expect]
    assert report.checks[0].observed == expect.max()


@pytest.mark.parametrize("case", ["colehopf", "zero"])
def test_solve_reports_regression_conditioning(tmp_path, case):
    # read off the factors cached on the ensemble; the CSV does not carry it
    cfg = write_cfg(
        tmp_path,
        f"[case]\nname = {case}\n[grid]\nm = 10\n[ensemble]\nn = 300\nseed = 3\n"
        "[checks]\nsamples = 500\n",
    )
    out = tmp_path / "r"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    regression = json.loads((out / f"{case}_report.json").read_text())["solve"]["regression"]
    if case == "colehopf":
        assert regression["nodes_factored"] == 9
        assert 1.0 <= regression["max_cond"] < float("inf")
    else:                              # constant targets never reach a factor
        assert regression["nodes_factored"] == 0 and regression["max_cond"] is None
    assert regression["rank_deficient_nodes"] == []
    header = (out / f"{case}_solution.csv").read_text().splitlines()[0]
    assert header.endswith("sup_abs_Y,bmo_to_go,oracle_err_Y,oracle_err_Z")


SWEEP_FAST = """
    [case]
    name = zero

    [ensemble]
    seed = 1

    [checks]
    samples = 500

    [sweep]
    pairs = 5:100, 10:200
"""


@pytest.mark.parametrize("command, victim",
                         [("solve", "zero"), ("bench", "loggrowth"), ("sweep", "zero")])
def test_solve_blowup_exits_3_with_partial_report(tmp_path, monkeypatch, capsys, command, victim):
    # the victim case blows up (sweep's at its second pair): its report is the
    # partial JSON and it has no CSV; bench has written the cases before it in
    # full and stops there, sweep writes the table of the pairs before it
    import mfbsde.cli as cli

    solve = cli.solve_auto

    def explode(gen, terminal, ens, *args, **kwargs):
        if gen.name != victim or ens.grid.M == 5:
            return solve(gen, terminal, ens, *args, **kwargs)
        raise BlowUpError(node=3, value=1e9, guard=10.0, component=1)

    monkeypatch.setattr(cli, "solve_auto", explode)
    cfg = write_cfg(tmp_path, SWEEP_FAST if command == "sweep" else ZERO_FAST)
    out = tmp_path / "r"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert "blow-up" in capsys.readouterr().err
    stem = victim if command == "solve" else f"{command}_{victim}"
    partial = json.loads((out / f"{stem}_report.json").read_text())
    assert partial["node"] == 3 and partial["guard"] == 10.0
    assert partial["component"] == 1
    assert not (out / f"{stem}_solution.csv").exists()
    if command == "bench":
        assert sorted(p.name for p in out.iterdir()) == [
            "bench_colehopf_report.json", "bench_colehopf_solution.csv",
            "bench_loggrowth_report.json"]
    if command == "sweep":
        assert sorted(p.name for p in out.iterdir()) == ["sweep_zero.csv",
                                                         "sweep_zero_report.json"]
        rows = (out / "sweep_zero.csv").read_text().splitlines()
        assert rows[0] == "M,N,y0_mean,y0_abs_err,mean_node_err_Y,mean_node_err_Z"
        assert [r.split(",")[:2] for r in rows[1:]] == [["5", "100"]]


@pytest.mark.parametrize("a, m", [("1e-320", 50), ("1e-310", 1000)],
                         ids=["t_lambda-infinite", "step-count-overflows"])
def test_solve_stitches_one_window_when_t_lambda_outgrows_the_grid(tmp_path, capsys, a, m):
    # t_lambda / dt is not finite: one stitched window over the whole grid
    cfg = write_cfg(tmp_path, f"[case]\nname = meanfield_linear\na = {a}\nb = 0\n"
                              f"[grid]\nm = {m}\n[ensemble]\nn = 200\n[checks]\nsamples = 500\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "meanfield_linear_report.json").read_text())
    assert report["solve"]["mode"] == "stitched"
    assert report["solve"]["plan"]["windows"] == [[0, m]]
    assert report["solve"]["plan"]["steps_per_window"] == m


# -------------------------------------------------------------- bad configs


@pytest.mark.parametrize(
    "body",
    [
        "[grid]\nm = 10\n",                                  # no case section
        "[case]\nname = not_a_case\n",                       # unknown case
        "[case]\nname = zero\nwhatever = 1\n",               # unknown parameter
        "[case]\nname = zero\nc = hello\n",                  # uncastable value
        "[case]\nname = zero\n\n[solver]\ninit = sideways\n",
        "[case]\nname = zero\n\n[basis]\nkind = fourier\n",
        "[case]\nname = loggrowth\nkappa = -1\n",            # factory rejects
        "[case]\nname = zero\n[debug]\nforce_apriori_violation = true\n",  # unknown section
        "[case]\nname = zero\n[grid]\nm = 0\n",
        "[case]\nname = zero\n[ensemble]\nn = 1\n",
        "[case]\nname = zero\n[solver]\ntol = -1\n",
        "[case]\nname = zero\n[solver]\nmax_iter = 0\n",
        "[case]\nname = zero\n[solver]\nsafety = 3\n",        # unknown keys
        "[case]\nname = zero\n[solver]\nsafety = -1\n",
        "[case]\nname = zero\n[grid]\nsteps = 9\n",
        "[case]\nname = zero\n[basis]\nkind = piecewise-bins\ndegree = 2\n",  # [basis]
        "[case]\nname = zero\n[basis]\nkind = polynomial\nbins = 4\n",       # reads
        "[case]\nname = zero\n[basis]\nbins = 4\n",                          # degree only
    ],
)
def test_config_errors_exit_2(tmp_path, body, capsys):
    cfg = write_cfg(tmp_path, body)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [("grid", "m", "0"), ("ensemble", "n", "1"), ("solver", "tol", "-1"),
     ("solver", "max_iter", "0"), ("solver", "safety", "-1"), ("solver", "toll", "5"),
     ("basis", "bins", "4")],
)
def test_bad_numeric_config_names_its_key(tmp_path, section, key, value, capsys):
    cfg = write_cfg(tmp_path, f"[case]\nname = zero\n[{section}]\n{key} = {value}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert f"[{section}] {key} = " in capsys.readouterr().err


# Bad values, each exiting 2 under every subcommand that loads the config,
# with the text its message must carry.
BAD_VALUES = [
    ("[grid]\nm = 0\n", "[grid] m = '0': expected an integer >= 1"),
    ("[ensemble]\nn = 1\n", "[ensemble] n = '1': expected an integer >= 2"),
    ("[ensemble]\nseed = -1\n", "[ensemble] seed = '-1': expected an integer >= 0"),
    ("[checks]\nsamples = 0\n", "[checks] samples = '0': expected an integer >= 1"),
    ("[checks]\nseed = -2\n", "[checks] seed = '-2': expected an integer >= 0"),
    ("[solver]\ntol = 0\n", "[solver] tol = '0': expected a finite positive number"),
    ("[solver]\ntol = inf\n", "[solver] tol = 'inf': expected a finite positive number"),
    ("[solver]\nmax_iter = 1.5\n", "[solver] max_iter = '1.5': expected an integer >= 1"),
    ("[solver]\ninit = sideways\n", "[solver] init = 'sideways': expected terminal-flat"),
    ("[basis]\ndegree = 0\n", "[basis] degree = '0': expected an integer >= 1"),
    ("[output]\ndir =\n", "[output] dir = '': expected a non-empty path"),
    ("[sweep]\npairs = 0:0\n", "[sweep] pairs entry '0:0': expected M >= 1"),
    ("[sweep]\npairs = ,\n", "[sweep] pairs = ',': expected at least one M:N entry"),
]
# Values the named catalog factory rejects: a config error naming [case].
FACTORY_REJECTS = [
    ("colehopf", "gamma = 0", "[case] colehopf(gamma=0.0): gamma must be finite and positive"),
    ("colehopf", "gamma = nan", "[case] colehopf(gamma=nan): gamma must be finite and positive"),
    ("zero", "n = 0", "[case] zero(n=0): n and d must be positive"),
    ("zero", "c = 0", "[case] zero(c=0.0): terminal bound must be positive"),
    ("colehopf", "clamp_mult = 0", "[case] colehopf(clamp_mult=0.0): terminal bound"),
    ("loggrowth", "kappa = -1", "[case] loggrowth(kappa=-1.0): kappa must be positive"),
]
COMMANDS = ["constants", "check", "solve", "bench", "sweep"]


def assert_config_error(argv, tmp_path, capsys, text):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and text in err
    assert not (tmp_path / "r").exists()          # rejected before any run


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("body, text", BAD_VALUES)
def test_bad_value_exits_2_under_every_subcommand(tmp_path, capsys, command, body, text):
    if command == "sweep" and body.startswith(("[grid]", "[ensemble]\nn")):
        text = "sweep does not read it"            # rejected as unread, not as a value
    cfg = write_cfg(tmp_path, f"[case]\nname = zero\n{body}")
    assert_config_error([command, "--config", cfg], tmp_path, capsys, text)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name, param, text", FACTORY_REJECTS)
def test_factory_reject_exits_2_under_every_subcommand(tmp_path, capsys, command, name,
                                                       param, text):
    if command == "bench":
        text = f"[case] {param.split()[0]}: bench does not read it"
    cfg = write_cfg(tmp_path, f"[case]\nname = {name}\n{param}\n")
    assert_config_error([command, "--config", cfg], tmp_path, capsys, text)


# Case values that parse but whose arithmetic leaves binary64, in the
# factory or in the constants ledger; ";" separates keys.
OUT_OF_RANGE = [
    ("colehopf", "T=200"),                    # lambda overflows to inf
    ("colehopf", "n=20;T=10"),                # lambda overflows to inf
    ("colehopf", "gamma=1e-300"),             # gamma**2 underflows to 0
    ("colehopf", "gamma=1e300"),              # gamma**2 overflows
    ("meanfield_linear", "a=1e6"),            # the factory's exp((a + b) T) overflows
]


@pytest.mark.parametrize("command, name, params",
                         [(command, *case) for case in OUT_OF_RANGE
                          for command in ("constants", "solve", "sweep")]
                         + [("check", *OUT_OF_RANGE[-1])])
def test_out_of_range_case_values_exit_2(tmp_path, capsys, command, name, params):
    cfg = write_cfg(tmp_path, f"[case]\nname = {name}\n" + params.replace(";", "\n") + "\n")
    assert_config_error([command, "--config", cfg], tmp_path, capsys, f"[case] {name}")


def test_an_overflowing_phi_radius_exits_2_with_a_clean_stderr(tmp_path):
    # C1 = 1e308 takes phi's sampling radius to inf; the factory refuses it
    # before numpy samples phi on a grid of nan and inf, so stderr holds the
    # config error alone.  A fresh process: pytest would capture a warning
    cfg = write_cfg(tmp_path, "[case]\nname = zero\nc = 1e308\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mfbsde.cli", "solve", "--config", cfg,
                           "--out", str(tmp_path / "r")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == ("config error: [case] zero(c=1e+308): phi's sampling radius "
                           "4*n*(C0 + C1 + 1) is inf for C0 = 0.01, C1 = 1e+308; "
                           "it must be finite\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("seed", ["-3", "x"])
def test_bad_seed_flag_exits_2(tmp_path, capsys, command, seed):
    cfg = write_cfg(tmp_path, "[case]\nname = zero\n")
    assert_config_error([command, "--config", cfg, "--seed", seed], tmp_path, capsys,
                        f"--seed = {seed!r}: expected an integer >= 0")


def test_empty_config_loads_the_defaults(tmp_path):
    conf = _load_config(write_cfg(tmp_path, ""), "solve")
    assert conf == {
        "grid": {"m": 50},
        "ensemble": {"n": 10_000, "seed": 1},
        "basis": {"degree": None},                # the case's default_basis
        "solver": {"tol": 1e-3, "max_iter": 25, "init": "terminal-flat"},
        "checks": {"samples": 10_000, "seed": 0},
        "output": {"dir": "runs"},
        "sweep": {"pairs": ((25, 1000), (50, 10_000), (100, 100_000))},
        "case": {},
    }


def test_case_horizon_is_settable(tmp_path, capsys):
    # configparser lowercases keys; [case] T still reaches the factory's T
    cfg = write_cfg(tmp_path, "[case]\nname = colehopf\nT = 2.0\n")
    assert _load_config(cfg, "constants")["case"] == {"name": "colehopf", "T": 2.0}
    assert main(["constants", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == compute_ledger(make_case("colehopf", T=2.0).params).lam
    assert doc["lambda"] != compute_ledger(make_case("colehopf").params).lam


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        b"[case]\nname = zero\nname = colehopf\n",       # repeated key
        b"m = 10\n[case]\nname = zero\n",                 # no section header
        b"[case]\nname = zero\n[grid]\nm = %(x)s\n",      # raised by items(), not read()
        b"\xff[case]\nname = zero\n",                     # not decodable as UTF-8
    ],
    ids=["duplicate-option", "missing-section-header", "interpolation", "undecodable"],
)
def test_unparsable_config_exits_2_naming_the_file(tmp_path, capsys, body):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(body)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err
    assert not (tmp_path / "r").exists()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.ini"])


# -------------------------------------------------------------------- bench


def test_bench_covers_catalog(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        [grid]
        m = 10

        [ensemble]
        n = 300
        seed = 2

        [checks]
        samples = 500
        """,
    )
    out = tmp_path / "b"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for name in ("zero", "meanfield_linear", "colehopf", "loggrowth"):
        assert f"bench {name}:" in text
        assert (out / f"bench_{name}_report.json").exists()
        assert (out / f"bench_{name}_solution.csv").exists()
    # the two-component case writes both mean columns
    header = (out / "bench_loggrowth_solution.csv").read_text().splitlines()[0]
    assert header.startswith("t,mean_Y1,mean_Y2,")


# sha256 of each case's solution CSV from `mfbsde bench` at m = 10,
# n = 2000, seed 7, taken before fields and paths were stored node-major.
GOLDEN_BENCH_CSV = {
    "colehopf": "34623003e1b015794141df3c01f0bc11be7c6c8ff570a43a881c5033804a7aea",
    "loggrowth": "e846c4bbb7dd7ee4cd125e0e955876d91b06ed9e3f8e355bcfba5bcbcacfa8ab",
    "meanfield_linear": "397ff004455b1f6a49c45e576a4a17d425f57746c227b746acf5df8c3c6823f9",
    "zero": "276a2f2711673720946ba429000b7ee9280e2df02b191a7b70035d0b9c77ddbd",
}


# sha256 of each case's report JSON from the same run, taken while the
# declared budgets were still sampled with one call per sample; the JSON
# carries the H1/H2/H4 reports that budget sampling feeds.
GOLDEN_BENCH_REPORT = {
    "colehopf": "8ab1b6a97675f44814fab4f98ca0f62498c143a00d79b8965796619c31ac1cd0",
    "loggrowth": "3f848568235c6219e60a47e2e352234f9691ab888b3e51d37bf2eb2fa19a1ff0",
    "meanfield_linear": "eb271e2cb4c497a3294c93c9b6f31f08f7fd75c6830378f0541891af6f05fbb2",
    "zero": "833da0fb280fbc2063a883cfb75916acacbacced814cdb0165c2deb20e9d8590",
}


def test_bench_csvs_match_the_golden_digests(tmp_path, capsys):
    """The bench CSVs and report JSONs are bitwise those of the recorded digests.

    The digests were taken with numpy 2.4.6, scipy 1.17.1 and the
    scipy-openblas OpenBLAS 0.3.31 (64-bit ints, dynamic arch) on x86-64;
    another numpy, scipy or BLAS may legitimately move the last bits of
    the regressions and so of these files.
    """
    cfg = write_cfg(tmp_path, "[grid]\nm = 10\n[ensemble]\nn = 2000\nseed = 7\n")
    out = tmp_path / "b"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0

    def digests(kind):
        return {name: hashlib.sha256((out / f"bench_{name}_{kind}").read_bytes()).hexdigest()
                for name in GOLDEN_BENCH_CSV}

    assert digests("solution.csv") == GOLDEN_BENCH_CSV
    assert digests("report.json") == GOLDEN_BENCH_REPORT


# sha256 of each case's report JSON and solution CSV from `mfbsde bench` at
# m = 50, n = 10000, seed 7: the digests every change to the solver is held to.
NORTH_STAR_BENCH = {
    "colehopf": ("84e18bb0b0d336ad1e2ee715f8628d7bd9597bbd1543bb02b1254a697bf63221",
                 "694be80fb969fb926ff288723e06ccb095864b3bb8f5b39527e8c0ac0d445dde"),
    "loggrowth": ("6542b107ba1920626d7636ca0813d28fcbee733c1b23b588dec568d98b90633d",
                  "7128d8b492b076fed4cb257c14fc9976748c9fbfe9a27f00528d9f41725f1666"),
    "meanfield_linear": ("4f20c234ce353243b32c9d28275eaf47f1f55fc0be730bc48c2f11283b13d058",
                         "2346e2b834b2fd4f8d9c651a41805ccae6ec27b01bb611dea40f05eb55f8f9e3"),
    "zero": ("559483b838aaa6d3d4fa73c303d18bbf15bb9d6f54701fbc846d2bbbacd65001",
             "f60dabf0542df92f18e0e7fb6475dca4d8acc8d7464bf4fd895f5664e9d6f06d"),
}


@pytest.mark.parametrize("blas_threads", [None, 2], ids=["in-process", "2-threads"])
def test_bench_at_50_steps_matches_the_north_star_digests(tmp_path, capsys, blas_threads):
    """As test_bench_csvs_match_the_golden_digests, on the larger run; the
    same numpy, scipy and BLAS caveat applies.  In-process at the thread
    count the environment sets, and in a fresh `mfbsde bench` process with
    two OpenBLAS/OpenMP threads: the digests do not depend on it."""
    cfg = write_cfg(tmp_path, "[grid]\nm = 50\n[ensemble]\nn = 10000\nseed = 7\n")
    out = tmp_path / "b"
    argv = ["bench", "--config", cfg, "--out", str(out)]
    if blas_threads is None:
        assert main(argv) == 0
    else:
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
        proc = subprocess.run([sys.executable, "-m", "mfbsde.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    got = {name: tuple(hashlib.sha256((out / f"bench_{name}_{kind}").read_bytes()).hexdigest()
                       for kind in ("report.json", "solution.csv"))
           for name in NORTH_STAR_BENCH}
    assert got == NORTH_STAR_BENCH


def test_bench_rejects_case_parameters(tmp_path, capsys):
    # bench solves every catalog case at its defaults; [case] name alone is
    # accepted, as in a config shared with the other subcommands
    cfg = write_cfg(tmp_path, "[case]\nname = colehopf\ngamma = 2\n")
    assert_config_error(["bench", "--config", cfg], tmp_path, capsys,
                        "[case] gamma: bench does not read it")
    conf = _load_config(write_cfg(tmp_path, "[case]\nname = colehopf\n"), "bench")
    assert conf["case"] == {"name": "colehopf"}


# -------------------------------------------------------------------- sweep


def test_sweep_writes_refinement_table(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        [case]
        name = meanfield_linear

        [ensemble]
        seed = 1

        [checks]
        samples = 500

        [sweep]
        pairs = 5:100, 10:200
        """,
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep_meanfield_linear.csv").read_text().splitlines()
    assert rows[0] == "M,N,y0_mean,y0_abs_err,mean_node_err_Y,mean_node_err_Z"
    assert len(rows) == 3
    m5 = rows[1].split(",")
    m10 = rows[2].split(",")
    assert (m5[0], m5[1]) == ("5", "100") and (m10[0], m10[1]) == ("10", "200")
    # the deterministic linear case must refine under a finer grid
    assert float(m10[3]) < float(m5[3])
    assert "sweep meanfield_linear M=5 N=100" in capsys.readouterr().out


def test_sweep_row_of_a_case_without_an_oracle(tmp_path, capsys):
    # loggrowth has no closed form: each row carries the solved Y0 and
    # writes its three error columns as nan
    cfg = write_cfg(
        tmp_path,
        "[case]\nname = loggrowth\n[checks]\nsamples = 500\n[sweep]\npairs = 5:200, 10:400\n",
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "sweep_loggrowth.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["5", "200"], ["10", "400"]]
    for row in rows:
        assert np.isfinite(float(row[2])) and row[3:] == ["nan", "nan", "nan"]


def test_sweep_failed_check_exits_1(tmp_path, failing_apriori, capsys):
    cfg = write_cfg(
        tmp_path,
        "[case]\nname = zero\n[checks]\nsamples = 500\n[sweep]\npairs = 5:100, 10:200\n",
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "sweep zero M=10 N=200" in capsys.readouterr().out
    rows = (out / "sweep_zero.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[2].startswith("10,200,")


def test_sweep_rejects_malformed_pairs(tmp_path, capsys):
    for pairs, why in (("5-100", "expected M:N"), ("0:100", "M >= 1"), ("5:1", "N >= 2")):
        cfg = write_cfg(
            tmp_path,
            f"[case]\nname = zero\n\n[sweep]\npairs = 5:100, {pairs}\n",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        # the entry is named as written, before any pair is solved
        assert f"[sweep] pairs entry {pairs!r}" in err and why in err
        assert "[grid]" not in err and "[ensemble]" not in err
        assert not (tmp_path / "s" / "sweep_zero.csv").exists()


@pytest.mark.parametrize("section, key, value", [("grid", "m", "0"), ("ensemble", "n", "1"),
                                                ("grid", "m", "10")])
def test_sweep_rejects_grid_and_ensemble_size(tmp_path, section, key, value, capsys):
    # each pair sets M and N, so a sweep reads neither key, in range or not
    cfg = write_cfg(
        tmp_path,
        f"[case]\nname = zero\n[{section}]\n{key} = {value}\n[sweep]\npairs = 5:100\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}" in err and "[sweep] pairs" in err and "M:N" in err
    assert not (tmp_path / "s" / "sweep_zero.csv").exists()


def test_sweep_builds_its_case_once(tmp_path, monkeypatch):
    # the catalog case, with its oracle self-check and its structural
    # checks, is built and checked once for all pairs
    import mfbsde.benchmarks as benchmarks

    checks, structural = [], []
    original, run_checks = benchmarks.residual_self_check, cli.run_checks

    def counting(case, *args, **kwargs):
        checks.append(case.name)
        return original(case, *args, **kwargs)

    def counting_structural(gen, *args, **kwargs):
        structural.append(gen.name)
        return run_checks(gen, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "residual_self_check", counting)
    monkeypatch.setattr(cli, "run_checks", counting_structural)
    cfg = write_cfg(
        tmp_path,
        "[case]\nname = zero\n[checks]\nsamples = 500\n[sweep]\npairs = 5:100, 6:100, 7:120\n",
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert checks == structural == ["zero"]
    rows = (out / "sweep_zero.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["5", "100"], ["6", "100"], ["7", "120"]]


# ------------------------------------------------- oracle self-check, draws


@pytest.fixture
def failing_self_check(monkeypatch):
    import mfbsde.benchmarks as benchmarks

    monkeypatch.setattr(benchmarks, "residual_self_check", lambda case, ens: (1.0, -1.0))


SELF_CHECKED = {
    "solve": "[case]\nname = colehopf\n[grid]\nm = 10\n[ensemble]\nn = 300\n",
    "bench": "[grid]\nm = 10\n[ensemble]\nn = 300\n",
    "sweep": "[case]\nname = colehopf\n[sweep]\npairs = 10:300\n",
}


@pytest.mark.parametrize("command", sorted(SELF_CHECKED))
def test_failed_self_check_exits_2_before_any_output(tmp_path, capsys, failing_self_check,
                                                     command):
    cfg = write_cfg(tmp_path, SELF_CHECKED[command] + "[checks]\nsamples = 500\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "oracle self-check failed for case 'colehopf'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["constants", "check"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_constants_and_check_read_no_oracle(tmp_path, capsys, failing_self_check, command,
                                            name):
    cfg = write_cfg(tmp_path, f"[case]\nname = {name}\n[checks]\nsamples = 500\n")
    assert main([command, "--config", cfg]) == 0


@pytest.fixture
def draws(monkeypatch):
    """(M, N, d, seed) of every generate_ensemble call made through the package."""
    import sys

    from mfbsde import engine

    calls, original = [], engine.generate_ensemble

    def counting(grid, N, d, seed):
        calls.append((grid.M, N, d, seed))
        return original(grid, N, d, seed)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "mfbsde" and vars(module).get("generate_ensemble") is original:
            monkeypatch.setattr(module, "generate_ensemble", counting)
    return calls


SELF_CHECK_DRAW = (200, 10_000, 1, 93)


@pytest.mark.parametrize("command, body, expect", [
    ("constants", "[case]\nname = colehopf\n", []),
    ("check", "[case]\nname = colehopf\n[checks]\nsamples = 500\n", []),
    ("bench", "", [SELF_CHECK_DRAW, (50, 10_000, 1, 1)]),
    ("solve", "[case]\nname = colehopf\n[grid]\nm = 10\n[ensemble]\nn = 300\n",
     [SELF_CHECK_DRAW, (10, 300, 1, 1)]),
    ("solve", "[case]\nname = loggrowth\n[grid]\nm = 10\n[ensemble]\nn = 300\n",
     [(10, 300, 1, 1)]),
    ("sweep", "[case]\nname = zero\n[sweep]\npairs = 5:100, 6:100, 5:120\n",
     [SELF_CHECK_DRAW, (5, 100, 1, 1), (6, 100, 1, 1), (5, 120, 1, 1)]),
])
def test_draws_per_command(tmp_path, capsys, draws, command, body, expect):
    cfg = write_cfg(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert draws == expect


def test_bench_writes_what_solve_writes_for_each_case(tmp_path, capsys):
    # each case solves on its own Ensemble around the shared paths, with its
    # own factor cache, so the regression block is that case's alone
    body = "[grid]\nm = 10\n[ensemble]\nn = 2000\nseed = 7\n"
    assert main(["bench", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "bench")]) == 0
    for name in sorted(CATALOG):
        cfg = write_cfg(tmp_path, f"[case]\nname = {name}\n" + body, name=f"{name}.ini")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        for kind in ("report.json", "solution.csv"):
            alone = (tmp_path / name / f"{name}_{kind}").read_bytes()
            assert (tmp_path / "bench" / f"bench_{name}_{kind}").read_bytes() == alone, name
    for name in ("meanfield_linear", "zero"):
        report = json.loads((tmp_path / "bench" / f"bench_{name}_report.json").read_text())
        assert report["solve"]["regression"]["nodes_factored"] == 0


@pytest.mark.parametrize("command", sorted(SELF_CHECKED))
def test_the_self_check_draw_is_released_before_the_first_solve(tmp_path, capsys, monkeypatch,
                                                                 command):
    import weakref

    drawn, alive_at_solve = [], []
    original_draw, original_solve = cli.generate_ensemble, cli.solve_auto

    def tracked(grid, N, d, seed):
        ens = original_draw(grid, N, d, seed)
        drawn.append([weakref.ref(a) for a in (ens.increments, ens.checkpoints,
                                                ens.increments.base, ens.checkpoints.base)])
        return ens

    def first_solve(*args, **kwargs):
        if not alive_at_solve:
            alive_at_solve.append([r() is not None for r in drawn[0]])
        return original_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_ensemble", tracked)
    monkeypatch.setattr(cli, "solve_auto", first_solve)
    cfg = write_cfg(tmp_path, SELF_CHECKED[command] + "[checks]\nsamples = 500\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(drawn) == 2
    assert alive_at_solve == [[False] * 4]


def test_bench_solves_share_read_only_paths_with_their_own_factor_cache(tmp_path, capsys,
                                                                       monkeypatch):
    seen, original = [], cli.solve_auto

    def recording(generator, terminal, ens, *args, **kwargs):
        seen.append((ens, dict(ens.factors)))
        return original(generator, terminal, ens, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_auto", recording)
    cfg = write_cfg(tmp_path, "[grid]\nm = 10\n[ensemble]\nn = 300\n[checks]\nsamples = 500\n")
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(seen) == len(CATALOG)
    first = seen[0][0]
    assert len({id(ens) for ens, _ in seen}) == len({id(ens.factors) for ens, _ in seen}) == 4
    for ens, factors_at_solve in seen:
        assert factors_at_solve == {}
        for name in ("increments", "checkpoints"):
            assert getattr(ens, name) is getattr(first, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(ens, name)[0, 0, 0] = 1.0


def test_sweep_releases_each_pair_before_the_next_solve(tmp_path, capsys, monkeypatch):
    import weakref

    drawn, alive_at_solve = [], []
    original_draw, original_solve = cli.generate_ensemble, cli.solve_auto

    def tracked(grid, N, d, seed):
        ens = original_draw(grid, N, d, seed)
        drawn.append([weakref.ref(a) for a in (ens.increments, ens.checkpoints,
                                                ens.increments.base, ens.checkpoints.base)])
        return ens

    def solving(*args, **kwargs):
        alive_at_solve.append([any(r() is not None for r in refs) for refs in drawn])
        return original_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_ensemble", tracked)
    monkeypatch.setattr(cli, "solve_auto", solving)
    cfg = write_cfg(tmp_path, "[case]\nname = colehopf\n[checks]\nsamples = 500\n"
                              "[sweep]\npairs = 5:100, 6:100, 7:120\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # draws: the self-check's, then one per pair; only the current pair's is alive
    assert alive_at_solve == [[False, True], [False, False, True], [False, False, False, True]]


# ------------------------------------------------------------------ helpers


def test_fmt_round_trips_floats():
    for x in (0.1, 1.0, np.float64(2.5e-17), 3.0):
        assert float(_fmt(x)) == float(x)
    assert _fmt(1.0) == "1.0"
