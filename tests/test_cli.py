"""End-to-end runs of the config-driven command line."""

import json
import textwrap

import numpy as np
import pytest

from mfbsde import (
    BlowUpError,
    ProcessPair,
    case_zero,
    compute_ledger,
    make_case,
    sup_norm_estimate,
    verify_apriori,
)
from mfbsde.cli import _fmt, _load_config, main


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
        big = ProcessPair.from_fields(report.pair.Y * (1.01 * lam), report.pair.Z)
        apriori = verify_apriori(sup_norm_estimate(big), report.ledger)
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
    # one BMO pass for the initial guess and one per sweep; verification
    # reuses the last sweep's profile (one window over the whole grid) and
    # the CSV reuses the verification profile instead of a pass of its own
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
    assert len(bmo_passes) == sweeps + 1
    lines = (out / "loggrowth_solution.csv").read_text().splitlines()
    col = lines[0].split(",").index("bmo_to_go")
    bmo = max(float(line.split(",")[col]) for line in lines[1:])
    checks = {c["name"]: c for c in report["solve"]["checks"]}
    assert checks["bmo_membership"]["observed"] == bmo * bmo


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


def test_solve_blowup_exits_3_with_partial_report(tmp_path, monkeypatch, capsys):
    import mfbsde.cli as cli

    def explode(*args, **kwargs):
        raise BlowUpError(node=3, value=1e9, guard=10.0, component=1)

    monkeypatch.setattr(cli, "solve_auto", explode)
    cfg = write_cfg(tmp_path, ZERO_FAST)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "blow-up" in capsys.readouterr().err
    partial = json.loads((tmp_path / "r" / "zero_report.json").read_text())
    assert partial["node"] == 3 and partial["guard"] == 10.0
    assert partial["component"] == 1


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
    # the catalog case, with its oracle self-check, is built once for all pairs
    import mfbsde.benchmarks as benchmarks

    checks = []
    original = benchmarks.residual_self_check

    def counting(case, *args, **kwargs):
        checks.append(case.name)
        return original(case, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "residual_self_check", counting)
    cfg = write_cfg(
        tmp_path,
        "[case]\nname = zero\n[checks]\nsamples = 500\n[sweep]\npairs = 5:100, 6:100, 7:120\n",
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert checks == ["zero"]
    rows = (out / "sweep_zero.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["5", "100"], ["6", "100"], ["7", "120"]]


# ------------------------------------------------------------------ helpers


def test_fmt_round_trips_floats():
    for x in (0.1, 1.0, np.float64(2.5e-17), 3.0):
        assert float(_fmt(x)) == float(x)
    assert _fmt(1.0) == "1.0"
