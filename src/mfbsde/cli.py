"""Config-driven command line front end.

Subcommands: constants, check, solve, bench, sweep.  Every run is driven by a
flat INI config (sections of key = value, no embedded code); models are chosen
from the benchmark registry by name plus numeric parameters, which keeps runs
reproducible and auditable.  Every key is cast and range-checked against
SCHEMA when the config is loaded, whatever the subcommand.  Exit codes: 0
pass, 1 failed check, 2 bad usage/config, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import inspect
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .benchmarks import CATALOG, BenchmarkCase, check_oracle, make_case, oracle_errors
from .constants import FORMULAS, ConstantsLedger, compute_ledger
from .engine import (
    PROXY_CAVEAT,
    Ensemble,
    RegressionBasis,
    TimeGrid,
    default_basis,
    generate_ensemble,
)
from .errors import BlowUpError, ConfigError, TerminalBoundError
from .global_solver import GlobalReport, solve_auto
from .model import run_checks


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; the determinism contract of the CSV."""
    return repr(float(x))


def _sanitize(obj):
    """Make a report JSON-serializable: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, str, int)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else str(v)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


class Key(NamedTuple):
    """One config key: its caster, the value when unset, and the accepted
    values as a predicate on the cast value and as the text an error shows."""

    cast: Callable[[str], object]
    default: object
    ok: Callable[[object], bool]
    expect: str


def _pairs(raw: str) -> tuple[tuple[int, int], ...]:
    """[sweep] pairs: comma-separated M:N entries; an error names the entry."""
    pairs = []
    for item in filter(None, (s.strip() for s in raw.split(","))):
        try:
            M, N = (int(s) for s in item.split(":"))
        except ValueError:
            raise ConfigError(
                f"[sweep] pairs entry {item!r}: expected M:N with integers"
            ) from None
        if M < 1 or N < 2:
            raise ConfigError(
                f"[sweep] pairs entry {item!r}: expected M >= 1 and N >= 2 (regression "
                "needs two particles)"
            )
        pairs.append((M, N))
    return tuple(pairs)


def _at_least(lo: int) -> tuple[Callable[[int], bool], str]:
    return (lambda v: v >= lo), f"an integer >= {lo}"


# Every key of every section but [case], whose keys are name plus the
# parameters of the named catalog factory.  [basis] degree defaults to the
# case's default_basis.
SCHEMA: dict[str, dict[str, Key]] = {
    "grid": {"m": Key(int, 50, *_at_least(1))},
    "ensemble": {
        "n": Key(int, 10_000, lambda v: v >= 2,
                 "an integer >= 2 (regression needs two particles)"),
        "seed": Key(int, 1, *_at_least(0)),
    },
    "basis": {"degree": Key(int, None, *_at_least(1))},
    "solver": {
        "tol": Key(float, 1e-3, lambda v: 0.0 < v < math.inf, "a finite positive number"),
        "max_iter": Key(int, 25, *_at_least(1)),
        "init": Key(str, "terminal-flat", lambda v: v in ("terminal-flat", "zero"),
                    "terminal-flat or zero"),
    },
    "checks": {"samples": Key(int, 10_000, *_at_least(1)), "seed": Key(int, 0, *_at_least(0))},
    "output": {"dir": Key(str, "runs", bool, "a non-empty path")},
    "sweep": {"pairs": Key(_pairs, ((25, 1000), (50, 10_000), (100, 100_000)), bool,
                           "at least one M:N entry")},
}
SECTIONS = ("case",) + tuple(SCHEMA)
_NO_CASE = "config must declare [case] name = <catalog name>"


def _checked(label: str, key: Key, raw: str):
    """The cast value of `raw`, or a ConfigError naming `label`."""
    try:
        value = key.cast(raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{label} = {raw!r}: expected {key.expect}") from None
    if not key.ok(value):
        raise ConfigError(f"{label} = {raw!r}: expected {key.expect}")
    return value


def _reject_unread(cfg: configparser.ConfigParser, command: str) -> None:
    """A key the subcommand would silently ignore is a config error."""
    if command == "sweep":
        for section, key in (("grid", "m"), ("ensemble", "n")):
            if cfg.has_option(section, key):
                raise ConfigError(f"[{section}] {key}: sweep does not read it; each "
                                  "[sweep] pairs entry sets M:N")
    if command == "bench" and cfg.has_section("case"):
        for key in cfg.options("case"):
            if key != "name":
                raise ConfigError(f"[case] {key}: bench does not read it; it solves "
                                  "every catalog case at its defaults")


def _case_section(cfg: configparser.ConfigParser) -> dict:
    """[case] name and its parameters cast against the factory's signature,
    without building the case; {} when the section is absent or empty."""
    raw = dict(cfg.items("case")) if cfg.has_section("case") else {}
    if not raw:
        return {}
    name = raw.pop("name", None)
    if name is None:
        raise ConfigError(_NO_CASE)
    if name not in CATALOG:
        raise ConfigError(
            f"[case] name = {name!r} is not in the catalog "
            f"({', '.join(sorted(CATALOG))})"
        )
    # configparser lowercases keys; [case] T must still reach the parameter T
    params = {p.name.lower(): p for p in inspect.signature(CATALOG[name]).parameters.values()}
    case = {"name": name}
    for key, value in raw.items():
        if key not in params:
            raise ConfigError(f"[case] {key}: unknown parameter for case {name!r}")
        caster = int if isinstance(params[key].default, int) else float
        try:
            case[params[key].name] = caster(value)
        except ValueError:
            raise ConfigError(f"[case] {key} = {value!r}: expected {caster.__name__}") from None
    return case


def _load_config(path: str, command: str) -> dict:
    """Every section's typed values with the defaults filled in; any key the
    program does not read, any value out of range, or a file configparser
    cannot parse or interpolate is a ConfigError."""
    cfg = configparser.ConfigParser()
    try:
        if not cfg.read(path):
            raise ConfigError(f"config file not found: {path}")
        return _typed_config(cfg, command)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _typed_config(cfg: configparser.ConfigParser, command: str) -> dict:
    unknown = [s for s in cfg.sections() if s not in SECTIONS]
    if unknown:
        raise ConfigError(
            f"unknown config section(s) {', '.join(f'[{s}]' for s in unknown)}; "
            f"expected {', '.join(f'[{s}]' for s in SECTIONS)}"
        )
    _reject_unread(cfg, command)
    conf = {}
    for section, keys in SCHEMA.items():
        raw = dict(cfg.items(section)) if cfg.has_section(section) else {}
        for key, value in raw.items():
            if key not in keys:
                raise ConfigError(
                    f"[{section}] {key} = {value!r}: unknown key; expected {', '.join(keys)}"
                )
        conf[section] = {key: _checked(f"[{section}] {key}", spec, raw[key]) if key in raw
                         else spec.default for key, spec in keys.items()}
    conf["case"] = _case_section(cfg)
    return conf


def _build_case(conf: dict) -> BenchmarkCase:
    if not conf["case"]:
        raise ConfigError(_NO_CASE)
    params = dict(conf["case"])
    name = params.pop("name")
    try:
        return make_case(name, **params)
    except (ValueError, ArithmeticError) as exc:
        args = ", ".join(f"{k}={v!r}" for k, v in params.items())
        raise ConfigError(f"[case] {name}({args}): {exc}") from exc


def _ledger(case: BenchmarkCase) -> ConstantsLedger:
    """The case's constants ledger; parameters whose ledger leaves binary64
    (lambda overflowing, gamma**2 underflowing) are a config error."""
    try:
        return compute_ledger(case.params)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"[case] {case.name}: the constants ledger cannot be evaluated: "
                          f"{exc}") from exc


def _out_dir(conf: dict) -> Path:
    path = Path(conf["output"]["dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_sanitize(doc), sort_keys=True, indent=2) + "\n")


def _write_solution_csv(
    path: Path, case: BenchmarkCase, report: GlobalReport, ens, errors
) -> None:
    n = case.params.n
    pair = report.pair
    header = (
        ["t"]
        + [f"mean_Y{i + 1}" for i in range(n)]
        + ["sup_abs_Y", "bmo_to_go", "oracle_err_Y", "oracle_err_Z"]
    )
    err_y, err_z = errors if errors is not None else (None, None)
    M = ens.grid.M
    lines = [",".join(header)]
    for k in range(M + 1):
        row = [_fmt(ens.grid.nodes[k])]
        row += [_fmt(pair.mean_Y[k, i]) for i in range(n)]
        row += [_fmt(report.sup_nodes[k]), _fmt(report.bmo_nodes[k])]
        row.append(_fmt(err_y[k]) if err_y is not None else "nan")
        row.append(_fmt(err_z[k]) if (err_z is not None and k < M) else "nan")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _structural(case: BenchmarkCase, conf: dict) -> dict:
    checks = conf["checks"]
    return run_checks(case.generator, case.params,
                      samples=checks["samples"], rng_seed=checks["seed"])


# The oracle self-check's ensemble: steps, paths and seed.
_SELF_CHECK_M = 200
_SELF_CHECK_N = 10_000
_SELF_CHECK_SEED = 93


def _check_oracles(cases: Iterable[BenchmarkCase]) -> None:
    """The oracle self-check of every case with an oracle, before any solve.

    Cases of one (T, d) share one draw; the draws are released on return.
    """
    drawn: dict[tuple[float, int], Ensemble] = {}
    for case in cases:
        if case.oracle is not None:
            p = case.params
            if (p.T, p.d) not in drawn:
                drawn[p.T, p.d] = generate_ensemble(TimeGrid.make(_SELF_CHECK_M, p.T),
                                                    _SELF_CHECK_N, p.d, _SELF_CHECK_SEED)
            check_oracle(case, drawn[p.T, p.d])


def _draw(case: BenchmarkCase, conf: dict, M: int, N: int) -> Ensemble:
    """N paths of the case's dimension on M steps over its horizon, drawn
    with the config's seed."""
    p = case.params
    return generate_ensemble(TimeGrid.make(M, p.T), N, p.d, conf["ensemble"]["seed"])


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a float vector."""
    return float(np.sqrt((v ** 2).sum()))


def _oracle_summary(case, report, errors) -> dict | None:
    """Y0 and mean node errors against the case's oracle, None without one.

    y0_mean and y0_exact are the Euclidean norms of the particle mean of Y
    at t = 0 and of the oracle's Y at t = 0, W = 0; y0_abs_err is the norm
    of their difference as vectors."""
    if errors is None:
        return None
    err_y, err_z = errors
    mean_y0 = report.pair.mean_Y[0]
    exact = np.asarray(case.oracle(0.0, np.zeros(case.params.d))[0], dtype=float)
    return {
        "y0_mean": _norm(mean_y0),
        "y0_exact": _norm(exact),
        "y0_abs_err": _norm(mean_y0 - exact),
        "mean_node_err_Y": float(err_y.mean()),
        "mean_node_err_Z": float(err_z.mean()),
    }


def _solve_payload(case, structural, report, ens, errors) -> dict:
    return {
        "case": case.name,
        "grid": {"M": ens.grid.M, "T": ens.grid.T, "dt": ens.grid.dt},
        "ensemble": {"N": ens.N, "d": ens.d, "seed": ens.seed},
        "structural_checks": {k: v.to_dict() for k, v in structural.items()},
        "solve": report.to_dict(),
        "caveats": [PROXY_CAVEAT],
        "oracle": _oracle_summary(case, report, errors),
    }


def _passed(structural, report) -> bool:
    return (
        all(r.passed for r in structural.values())
        and report.converged
        and report.all_checks_passed()
    )


def _solve_or_report(case: BenchmarkCase, ledger: ConstantsLedger, conf: dict, ens: Ensemble,
                     path: Path):
    """Shared core of solve/bench/sweep: the verified global solve of `case`
    on `ens` and the oracle errors of its solution (None for a case without
    an oracle).  On a blow-up, write the partial report (node, component
    row, guard) to `path` and re-raise."""
    degree = conf["basis"]["degree"]
    basis = default_basis(case.params.d) if degree is None else RegressionBasis(degree)
    try:
        report = solve_auto(case.generator, case.terminal, ens, basis, ledger, **conf["solver"])
    except BlowUpError as exc:
        _write_json(path, {
            "case": case.name,
            "error": str(exc),
            "node": exc.node,
            "component": exc.component,
            "guard": exc.guard,
            "caveats": [PROXY_CAVEAT],
        })
        raise
    errors = None
    if case.oracle is not None:
        errors = oracle_errors(case, report.pair.Y, report.pair.Z, ens)
    return report, errors


def _solve_and_write(case: BenchmarkCase, ledger: ConstantsLedger, conf: dict, ens: Ensemble,
                     out: Path, stem: str):
    """Run the structural checks of `case`, solve it on `ens` and write
    `<stem>_report.json` and `<stem>_solution.csv` into `out`, or only the
    partial report of a blow-up, which is re-raised.  Returns the structural
    checks, the report and the report's payload."""
    structural = _structural(case, conf)
    report, errors = _solve_or_report(case, ledger, conf, ens, out / f"{stem}_report.json")
    payload = _solve_payload(case, structural, report, ens, errors)
    _write_json(out / f"{stem}_report.json", payload)
    _write_solution_csv(out / f"{stem}_solution.csv", case, report, ens, errors)
    return structural, report, payload


def cmd_constants(conf, args) -> int:
    case = _build_case(conf)
    ledger = _ledger(case)
    doc = dict(ledger.to_dict())
    doc["formulas"] = FORMULAS
    doc["caveats"] = [PROXY_CAVEAT]
    degenerate = ledger.validate()
    if degenerate:
        doc["degenerate_fields"] = degenerate
    print(json.dumps(_sanitize(doc), sort_keys=True, indent=2))
    return 0


def cmd_check(conf, args) -> int:
    case = _build_case(conf)
    structural = _structural(case, conf)
    for name in sorted(structural):
        print(structural[name].summary())
    ok = all(r.passed for r in structural.values())
    print(f"case {case.name}: {'all structural checks passed' if ok else 'VIOLATIONS found'}")
    return 0 if ok else 1


def cmd_solve(conf, args) -> int:
    case = _build_case(conf)
    ledger = _ledger(case)
    _check_oracles([case])
    out = _out_dir(conf)
    ens = _draw(case, conf, conf["grid"]["m"], conf["ensemble"]["n"])
    structural, report, _ = _solve_and_write(case, ledger, conf, ens, out, case.name)
    if args.save_state:
        np.savez_compressed(
            out / f"{case.name}_state.npz",
            Y=report.pair.Y,
            Z=report.pair.Z,
            mean_Y=report.pair.mean_Y,
            mean_Z=report.pair.mean_Z,
            nodes=ens.grid.nodes,
            seed=np.int64(ens.seed),
        )
    ok = _passed(structural, report)
    for c in report.checks:
        print(f"{c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})")
    print(f"solve {case.name}: mode={report.mode} converged={report.converged} -> "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_bench(conf, args) -> int:
    cases = [make_case(name) for name in sorted(CATALOG)]
    _check_oracles(cases)
    out = _out_dir(conf)
    # The catalog cases share T and d, so their solves share one read-only
    # draw (its path checkpoints are read-only already).  Each solves on its
    # own Ensemble, whose empty factor cache the report's regression block reads.
    shared = _draw(cases[0], conf, conf["grid"]["m"], conf["ensemble"]["n"])
    shared.increments.flags.writeable = False
    all_ok = True
    for case in cases:
        name = case.name
        ens = dataclasses.replace(shared)
        structural, report, payload = _solve_and_write(case, _ledger(case), conf, ens, out,
                                                       f"bench_{name}")
        ok = _passed(structural, report)
        all_ok = all_ok and ok
        extra = ""
        if payload["oracle"] is not None:
            extra = (f" y0_err={payload['oracle']['y0_abs_err']:.3e}"
                     f" z_err={payload['oracle']['mean_node_err_Z']:.3e}")
        print(f"bench {name}: mode={report.mode} {'pass' if ok else 'FAIL'}{extra}")
    return 0 if all_ok else 1


def cmd_sweep(conf, args) -> int:
    case = _build_case(conf)
    ledger = _ledger(case)
    _check_oracles([case])
    out = _out_dir(conf)
    structural = _structural(case, conf)
    rows = ["M,N,y0_mean,y0_abs_err,mean_node_err_Y,mean_node_err_Z"]
    table = out / f"sweep_{case.name}.csv"
    all_ok = True
    for M, N in conf["sweep"]["pairs"]:
        start = time.perf_counter()
        ens = _draw(case, conf, M, N)
        try:
            report, errors = _solve_or_report(
                case, ledger, conf, ens, out / f"sweep_{case.name}_report.json")
        except BlowUpError:
            table.write_text("\n".join(rows) + "\n")      # the pairs solved so far
            raise
        elapsed = time.perf_counter() - start
        oracle = _oracle_summary(case, report, errors)
        if oracle is not None:
            row = [str(M), str(N)] + [_fmt(oracle[k]) for k in (
                "y0_mean", "y0_abs_err", "mean_node_err_Y", "mean_node_err_Z")]
        else:
            row = [str(M), str(N), _fmt(_norm(report.pair.mean_Y[0])), "nan", "nan", "nan"]
        rows.append(",".join(row))
        ok = _passed(structural, report)
        all_ok = all_ok and ok
        print(f"sweep {case.name} M={M} N={N}: {elapsed:.2f}s {'pass' if ok else 'FAIL'}")
    table.write_text("\n".join(rows) + "\n")
    return 0 if all_ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="Regression Monte Carlo solver and verification harness for "
                    "multi-dimensional mean-field BSDEs with diagonally quadratic drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("constants", cmd_constants, "print the constants ledger as JSON"),
        ("check", cmd_check, "run the sampled structural checks"),
        ("solve", cmd_solve, "solve one case and verify the explicit bounds"),
        ("bench", cmd_bench, "solve the whole benchmark catalog"),
        ("sweep", cmd_sweep, "convergence study over a list of (M, N) pairs"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", default=None, help="override [ensemble] seed")
        p.add_argument("--out", default=None, help="override [output] dir")
        if name == "solve":
            p.add_argument("--save-state", action="store_true",
                           help="also write the particle fields as NPZ")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        conf = _load_config(args.config, args.command)
        # a flag overrides its key and is checked against the same range
        for flag, section, key in (("seed", "ensemble", "seed"), ("out", "output", "dir")):
            raw = getattr(args, flag)
            if raw is not None:
                conf[section][key] = _checked(f"--{flag}", SCHEMA[section][key], raw)
        return args.fn(conf, args)
    except (ConfigError, TerminalBoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
