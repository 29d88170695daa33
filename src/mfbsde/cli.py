"""Config-driven command line front end.

Subcommands: constants, check, solve, bench, sweep.  Every run is driven by a
flat INI config (sections of key = value, no embedded code); models are chosen
from the benchmark registry by name plus numeric parameters, which keeps runs
reproducible and auditable.  Exit codes: 0 pass, 1 failed check, 2 bad
usage/config, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from .benchmarks import CATALOG, BenchmarkCase, make_case, oracle_errors
from .constants import FORMULAS, compute_ledger
from .engine import PROXY_CAVEAT, RegressionBasis, TimeGrid, default_basis, generate_ensemble
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


# The keys each section accepts; [case] takes name plus the parameters of the
# chosen catalog factory, checked in _build_case.
KEYS = {
    "grid": ("m",),
    "ensemble": ("n", "seed"),
    "basis": ("kind", "degree", "bins"),
    "solver": ("tol", "max_iter", "init"),
    "checks": ("samples", "seed"),
    "output": ("dir",),
    "sweep": ("pairs",),
}
SECTIONS = ("case",) + tuple(KEYS)


def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    found = cfg.read(path)
    if not found:
        raise ConfigError(f"config file not found: {path}")
    unknown = [s for s in cfg.sections() if s not in SECTIONS]
    if unknown:
        raise ConfigError(
            f"unknown config section(s) {', '.join(f'[{s}]' for s in unknown)}; "
            f"expected {', '.join(f'[{s}]' for s in SECTIONS)}"
        )
    for section, keys in KEYS.items():
        if not cfg.has_section(section):
            continue
        for key, raw in cfg.items(section):
            if key not in keys:
                raise ConfigError(
                    f"[{section}] {key} = {raw!r}: unknown key; expected {', '.join(keys)}"
                )
    return cfg


def _build_case(cfg: configparser.ConfigParser) -> BenchmarkCase:
    if not cfg.has_section("case") or not cfg.has_option("case", "name"):
        raise ConfigError("config must declare [case] name = <catalog name>")
    name = cfg.get("case", "name")
    if name not in CATALOG:
        raise ConfigError(
            f"[case] name = {name!r} is not in the catalog "
            f"({', '.join(sorted(CATALOG))})"
        )
    sig = inspect.signature(CATALOG[name])
    kwargs = {}
    for key, raw in cfg.items("case"):
        if key == "name":
            continue
        if key not in sig.parameters:
            raise ConfigError(f"[case] {key}: unknown parameter for case {name!r}")
        default = sig.parameters[key].default
        caster = int if isinstance(default, int) else float
        try:
            kwargs[key] = caster(raw)
        except ValueError:
            raise ConfigError(
                f"[case] {key} = {raw!r}: expected {caster.__name__}"
            ) from None
    return make_case(name, **kwargs)


def _get(cfg, section, key, caster, default):
    if not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        return caster(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected {caster.__name__}") from None


# The [basis] key each kind does not read: setting it is a config error.
_UNREAD_BASIS_KEY = {"polynomial": "bins", "piecewise-bins": "degree"}


def _build_basis(cfg: configparser.ConfigParser, d: int) -> RegressionBasis:
    if not cfg.has_section("basis"):
        return default_basis(d)
    kind = cfg.get("basis", "kind", fallback="polynomial")
    unread = _UNREAD_BASIS_KEY.get(kind)
    if unread is not None and cfg.has_option("basis", unread):
        raise ConfigError(f"[basis] {unread} = {cfg.get('basis', unread)!r}: "
                          f"kind {kind} does not read it")
    try:
        return RegressionBasis(
            kind=kind,
            degree=_get(cfg, "basis", "degree", int, default_basis(d).degree),
            bins=_get(cfg, "basis", "bins", int, 8),
        )
    except ValueError as exc:
        raise ConfigError(f"[basis] {exc}") from exc


def _solver_settings(cfg) -> dict:
    init = _get(cfg, "solver", "init", str, "terminal-flat")
    if init not in ("terminal-flat", "zero"):
        raise ConfigError(f"[solver] init = {init!r}: expected terminal-flat or zero")
    tol = _get(cfg, "solver", "tol", float, 1e-3)
    if not tol > 0.0:
        raise ConfigError(f"[solver] tol = {tol!r}: expected a positive number")
    max_iter = _get(cfg, "solver", "max_iter", int, 25)
    if max_iter < 1:
        raise ConfigError(f"[solver] max_iter = {max_iter}: expected an integer >= 1")
    return {"tol": tol, "max_iter": max_iter, "init": init}


def _out_dir(cfg, args) -> Path:
    out = args.out if args.out else _get(cfg, "output", "dir", str, "runs")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seed(cfg, args) -> int:
    if args.seed is not None:
        return args.seed
    return _get(cfg, "ensemble", "seed", int, 1)


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
    sup_nodes = np.sqrt((pair.Y * pair.Y).sum(axis=2)).max(axis=0)
    err_y, err_z = errors if errors is not None else (None, None)
    M = ens.grid.M
    lines = [",".join(header)]
    for k in range(M + 1):
        row = [_fmt(ens.grid.nodes[k])]
        row += [_fmt(pair.mean_Y[k, i]) for i in range(n)]
        row += [_fmt(sup_nodes[k]), _fmt(report.bmo_nodes[k])]
        row.append(_fmt(err_y[k]) if err_y is not None else "nan")
        row.append(_fmt(err_z[k]) if (err_z is not None and k < M) else "nan")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _grid_size(cfg) -> tuple[int, int]:
    """(M, N) of [grid] m and [ensemble] n."""
    M = _get(cfg, "grid", "m", int, 50)
    if M < 1:
        raise ConfigError(f"[grid] m = {M}: expected an integer >= 1")
    N = _get(cfg, "ensemble", "n", int, 10_000)
    if N < 2:
        raise ConfigError(f"[ensemble] n = {N}: expected an integer >= 2 (regression "
                          "needs two particles)")
    return M, N


def _solve_case(case: BenchmarkCase, cfg, seed: int, M: int, N: int):
    """Shared core of solve/bench/sweep: checkers, verified global solve on M
    steps with N particles, and the oracle errors of the solution (None for
    a case without an oracle)."""
    basis = _build_basis(cfg, case.params.d)
    settings = _solver_settings(cfg)
    grid = TimeGrid.make(M, case.params.T)
    ens = generate_ensemble(grid, N, case.params.d, seed)

    structural = run_checks(
        case.generator,
        case.params,
        samples=_get(cfg, "checks", "samples", int, 10_000),
        rng_seed=_get(cfg, "checks", "seed", int, 0),
    )
    ledger = compute_ledger(case.params)
    report = solve_auto(case.generator, case.terminal, ens, basis, ledger, **settings)
    errors = None
    if case.oracle is not None:
        errors = oracle_errors(case, report.pair.Y, report.pair.Z, ens)
    return structural, report, ens, errors


def _y0_mean(report: GlobalReport) -> float:
    """Euclidean norm of the particle mean of Y at t = 0."""
    return float(np.sqrt((report.pair.mean_Y[0] ** 2).sum()))


def _oracle_summary(case, report, errors) -> dict | None:
    """Y0 and mean node errors against the case's oracle, None without one."""
    if errors is None:
        return None
    err_y, err_z = errors
    y0 = _y0_mean(report)
    return {
        "y0_mean": y0,
        "y0_exact": case.y0_exact,
        "y0_abs_err": abs(y0 - case.y0_exact) if case.y0_exact is not None else None,
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


def cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    case = _build_case(cfg)
    ledger = compute_ledger(case.params)
    doc = dict(ledger.to_dict())
    doc["formulas"] = FORMULAS
    doc["caveats"] = [PROXY_CAVEAT]
    degenerate = ledger.validate()
    if degenerate:
        doc["degenerate_fields"] = degenerate
    print(json.dumps(_sanitize(doc), sort_keys=True, indent=2))
    return 0


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    case = _build_case(cfg)
    structural = run_checks(
        case.generator,
        case.params,
        samples=_get(cfg, "checks", "samples", int, 10_000),
        rng_seed=_get(cfg, "checks", "seed", int, 0),
    )
    for name in sorted(structural):
        print(structural[name].summary())
    ok = all(r.passed for r in structural.values())
    print(f"case {case.name}: {'all structural checks passed' if ok else 'VIOLATIONS found'}")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    case = _build_case(cfg)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    M, N = _grid_size(cfg)
    try:
        structural, report, ens, errors = _solve_case(case, cfg, seed, M, N)
    except BlowUpError as exc:
        partial = {
            "case": case.name,
            "error": str(exc),
            "node": exc.node,
            "component": exc.component,
            "guard": exc.guard,
            "caveats": [PROXY_CAVEAT],
        }
        (out / f"{case.name}_report.json").write_text(
            json.dumps(_sanitize(partial), sort_keys=True, indent=2) + "\n"
        )
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3

    payload = _solve_payload(case, structural, report, ens, errors)
    (out / f"{case.name}_report.json").write_text(
        json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
    )
    _write_solution_csv(out / f"{case.name}_solution.csv", case, report, ens, errors)
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


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    M, N = _grid_size(cfg)
    all_ok = True
    for name in sorted(CATALOG):
        case = make_case(name)
        structural, report, ens, errors = _solve_case(case, cfg, seed, M, N)
        payload = _solve_payload(case, structural, report, ens, errors)
        (out / f"bench_{name}_report.json").write_text(
            json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
        )
        _write_solution_csv(out / f"bench_{name}_solution.csv", case, report, ens, errors)
        ok = _passed(structural, report)
        all_ok = all_ok and ok
        extra = ""
        if payload["oracle"] is not None:
            extra = (f" y0_err={payload['oracle']['y0_abs_err']:.3e}"
                     f" z_err={payload['oracle']['mean_node_err_Z']:.3e}")
        print(f"bench {name}: mode={report.mode} {'pass' if ok else 'FAIL'}{extra}")
    return 0 if all_ok else 1


def _sweep_pairs(cfg) -> list[tuple[int, int]]:
    for section, key in (("grid", "m"), ("ensemble", "n")):
        if cfg.has_option(section, key):
            raise ConfigError(f"[{section}] {key}: sweep does not read it; each "
                              "[sweep] pairs entry sets M:N")
    raw = _get(cfg, "sweep", "pairs", str, "25:1000, 50:10000, 100:100000")
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            m_str, n_str = item.split(":")
            M, N = int(m_str), int(n_str)
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
    if not pairs:
        raise ConfigError("[sweep] pairs must list at least one M:N entry")
    return pairs


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    case = _build_case(cfg)
    pairs = _sweep_pairs(cfg)
    out = _out_dir(cfg, args)
    seed = _seed(cfg, args)
    rows = ["M,N,y0_mean,y0_abs_err,mean_node_err_Y,mean_node_err_Z"]
    all_ok = True
    for M, N in pairs:
        start = time.perf_counter()
        structural, report, ens, errors = _solve_case(case, cfg, seed, M, N)
        elapsed = time.perf_counter() - start
        oracle = _oracle_summary(case, report, errors)
        if oracle is not None:
            y0_err = oracle["y0_abs_err"]
            row = [str(M), str(N), _fmt(oracle["y0_mean"]),
                   _fmt(float("nan") if y0_err is None else y0_err),
                   _fmt(oracle["mean_node_err_Y"]), _fmt(oracle["mean_node_err_Z"])]
        else:
            row = [str(M), str(N), _fmt(_y0_mean(report)), "nan", "nan", "nan"]
        rows.append(",".join(row))
        ok = _passed(structural, report)
        all_ok = all_ok and ok
        print(f"sweep {case.name} M={M} N={N}: {elapsed:.2f}s {'pass' if ok else 'FAIL'}")
    (out / f"sweep_{case.name}.csv").write_text("\n".join(rows) + "\n")
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
        p.add_argument("--seed", type=int, default=None, help="override the ensemble seed")
        p.add_argument("--out", default=None, help="output directory")
        if name == "solve":
            p.add_argument("--save-state", action="store_true",
                           help="also write the particle fields as NPZ")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
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
