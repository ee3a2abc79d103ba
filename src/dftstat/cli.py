"""Command-line front end.

Commands: test, segment, simulate, mc, scan, power. Outputs are
deterministic for a fixed seed: CSV floats carry 17 significant digits and
JSON numbers use exact round-trip formatting. Exit codes: 0 the command
ran (test decisions are data, not failures), 2 input or configuration
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ComputationError, InputError, StationarityTestError
from .numerics import RngStream
from .spectral import KernelSpec
from .stattest import (
    DEFAULT_LEVELS,
    CorrectionSpec,
    SegmentReport,
    TestResult,
    segmented_test,
    stationarity_test,
)
from .simulate import (
    GeneratorConfig,
    PRESET_NAMES,
    generate,
    local_spectrum,
    model_preset,
    spec_from_dict,
)
from .experiments import (
    McConfig,
    lag_scan,
    power_profile,
    rejection_rate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

OUTDIR_ENV = "DFTSTAT_OUTDIR"


def _fmt(x) -> str:
    """CSV field: floats pinned to 17 significant digits, anything else by str."""
    return format(float(x), ".17g") if isinstance(x, float) else str(x)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line of fields per row."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def read_series(path: str, column: int | None = None) -> np.ndarray:
    """Read one numeric column: one value per line, '#' comments skipped.

    With ``column`` the file is split on commas and the 0-based field is
    taken; a non-numeric first data row is treated as a header.
    """
    if column is not None and column < 0:
        raise InputError(f"column must be >= 0, got {column}")
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    values = []
    first_row = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if column is not None:
            fields = [f.strip() for f in line.split(",")]
            if column >= len(fields):
                raise InputError(f"{path}:{lineno}: no column {column} in row")
            token = fields[column]
        else:
            token = line
        try:
            values.append(float(token))
        except ValueError:
            if first_row and column is not None:
                first_row = False
                continue  # header row
            raise InputError(f"{path}:{lineno}: non-numeric value {token!r}") from None
        first_row = False
    if not values:
        raise InputError(f"{path}: no numeric data found")
    return np.asarray(values, dtype=float)


def apply_transform(series: np.ndarray, name: str | None) -> np.ndarray:
    """Optional preprocessing transforms applied after reading."""
    if name is None:
        return series
    if name == "sqrt-abs-logdiff2":
        # |log y_t^2 - log y_{t-2}^2|^(1/2); drops the first two points
        y = series
        if np.any(y == 0.0):
            raise InputError("sqrt-abs-logdiff2 transform undefined at zero values")
        ly = np.log(y ** 2)
        return np.sqrt(np.abs(ly[2:] - ly[:-2]))
    raise InputError(f"unknown transform {name!r}")


def _parse_lag_list(text: str) -> tuple[int, ...]:
    """Lag lists like '3,17,40' or ranges like '1..120' (mixable)."""
    lags = []
    for item in text.split(","):
        item = item.strip()
        if ".." in item:
            lo, hi = item.split("..", 1)
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise InputError(f"bad lag range {item!r}") from None
            if hi_i < lo_i:
                raise InputError(f"bad lag range {item!r}")
            lags.extend(range(lo_i, hi_i + 1))
        else:
            try:
                lags.append(int(item))
            except ValueError:
                raise InputError(f"bad lag {item!r}") from None
    if not lags:
        raise InputError("empty lag list")
    return tuple(lags)


def _resolve_model(name_or_path: str, T: int):
    """Preset name, or a path to a declarative JSON model spec."""
    if name_or_path in PRESET_NAMES:
        return model_preset(name_or_path, T), name_or_path
    p = Path(name_or_path)
    if p.suffix == ".json" or p.exists():
        try:
            payload = json.loads(p.read_text())
        except OSError as exc:
            raise InputError(f"cannot read model spec {name_or_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON in model spec {name_or_path}: {exc}") from exc
        return spec_from_dict(payload), p.name
    raise InputError(
        f"unknown model {name_or_path!r}; presets are: {', '.join(PRESET_NAMES)}"
    )


def _kernel_from_args(args) -> KernelSpec:
    bandwidth = None
    if args.bandwidth != "auto":
        try:
            bandwidth = float(args.bandwidth)
        except ValueError:
            raise InputError(f"bandwidth must be 'auto' or a number, got {args.bandwidth!r}") from None
    return KernelSpec(kind=args.kernel, bandwidth=bandwidth)


def _correction_from_args(args) -> CorrectionSpec:
    mode = args.correction
    if mode == "gaussian":
        if args.psi or args.kappa4 is not None or args.kappa:
            raise InputError("--psi/--kappa4/--kappa require --correction linear or user")
        return CorrectionSpec.gaussian()
    if mode == "linear":
        if not args.psi or args.kappa4 is None:
            raise InputError("--correction linear needs --psi and --kappa4")
        psi = tuple(float(v) for v in args.psi.split(","))
        return CorrectionSpec.linear(psi, args.kappa4)
    if not args.kappa:  # argparse's choices leave only mode "user" here
        raise InputError("--correction user needs --kappa")
    return CorrectionSpec.user(tuple(float(v) for v in args.kappa.split(",")))


def _lags_from_args(args) -> tuple[int, ...]:
    if args.lags is not None and args.m is not None:
        raise InputError("give either --m or --lags, not both")
    if args.lags is not None:
        return _parse_lag_list(args.lags)
    m = 4 if args.m is None else args.m
    if m < 1:
        raise InputError(f"--m must be >= 1, got {m}")
    return tuple(range(1, m + 1))


def _outdir(args) -> Path:
    d = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _result_payload(res: TestResult) -> dict:
    return {
        "statistic": res.statistic,
        "dof": res.dof,
        "p_value": res.p_value,
        "decisions": {f"{level:g}": bool(flag) for level, flag in sorted(res.reject_at.items())},
    }


def _print_test_text(res: TestResult, out):
    print(f"T = {res.T}   lags = {','.join(str(r) for r in res.lags)}", file=out)
    print(f"statistic = {res.statistic:.6g}   dof = {res.dof}   "
          f"p-value = {res.p_value:.6g}", file=out)
    for level in sorted(res.reject_at):
        verdict = "reject" if res.reject_at[level] else "do not reject"
        print(f"  at level {level:g}: {verdict} stationarity", file=out)


def _write_text(path_or_none, text: str):
    if path_or_none is None:
        sys.stdout.write(text)
    else:
        Path(path_or_none).write_text(text, newline="\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_test(args) -> int:
    lags = _lags_from_args(args)
    kernel = _kernel_from_args(args)
    correction = _correction_from_args(args)
    levels = tuple(args.level) if args.level else DEFAULT_LEVELS
    series = apply_transform(read_series(args.input, args.column), args.transform)
    res = stationarity_test(series, lags=lags, kernel=kernel, correction=correction,
                            ridge_factor=args.ridge_factor, demean=not args.keep_mean,
                            levels=levels)
    config = {
        "input": args.input,
        "transform": args.transform,
        "T": res.T,
        "lags": list(res.lags),
        "kernel": res.kernel.kind,
        "bandwidth": res.kernel.bandwidth,
        "ridge_factor": res.ridge_factor,
        "correction": res.correction_mode,
        "demeaned": res.demeaned,
    }
    if args.format == "json":
        payload = {"command": "test", "config": config, "result": _result_payload(res)}
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        levels = sorted(res.reject_at)
        header = "statistic,dof,p_value," + ",".join(f"reject_{level:g}" for level in levels)
        row = [res.statistic, res.dof, res.p_value,
               *(int(res.reject_at[level]) for level in levels)]
        _write_text(args.output, _csv(header, [row]))
    else:
        _print_test_text(res, sys.stdout)
    return EXIT_OK


def _cmd_segment(args) -> int:
    lags = _lags_from_args(args)
    kernel = _kernel_from_args(args)
    correction = _correction_from_args(args)
    levels = tuple(args.level) if args.level else DEFAULT_LEVELS
    series = apply_transform(read_series(args.input, args.column), args.transform)
    report = segmented_test(series, depth=args.depth, lags=lags, kernel=kernel,
                            correction=correction, ridge_factor=args.ridge_factor,
                            demean=not args.keep_mean, levels=levels)
    rows = [
        {
            "depth": b.depth, "index": b.index, "start": b.start, "end": b.stop,
            **_result_payload(b.result),
        }
        for b in report.blocks
    ]
    if args.format == "json":
        payload = {
            "command": "segment",
            "config": {"input": args.input, "transform": args.transform,
                       "T": report.T, "depth": report.depth, "lags": list(lags)},
            "blocks": rows,
        }
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        rows = ((b.depth, b.index, b.start, b.stop, b.result.statistic, b.result.dof,
                 b.result.p_value) for b in report.blocks)
        _write_text(args.output, _csv("depth,index,start,end,statistic,dof,p_value", rows))
    else:
        for b in report.blocks:
            flag = "reject" if b.result.p_value < 0.05 else "      "
            print(f"depth {b.depth}  block {b.index:2d}  [{b.start:6d},{b.stop:6d})  "
                  f"T-stat = {b.result.statistic:8.3f}  p = {b.result.p_value:.3f}  {flag}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec, name = _resolve_model(args.model, args.T)
    config = GeneratorConfig(T=args.T, burn_in=args.burn_in,
                             rng=RngStream(args.seed, args.stream))
    series = generate(spec, config)
    header = f"# {name} T={args.T} seed={args.seed} stream={args.stream}"
    _write_text(args.output, _csv(header, ([v] for v in series)))
    return EXIT_OK


def _cmd_mc(args) -> int:
    lags = _lags_from_args(args)
    kernel = _kernel_from_args(args)
    correction = _correction_from_args(args)
    spec, name = _resolve_model(args.model, args.T)
    config = McConfig(model=spec, T=args.T, lags=lags, level=args.level_single,
                      replications=args.N, master_seed=args.seed, kernel=kernel,
                      correction=correction, ridge_factor=args.ridge_factor,
                      burn_in=args.burn_in)
    report = rejection_rate(config)
    outdir = _outdir(args)
    tag = args.tag or name

    edges, density = report.histogram
    payload = {
        "command": "mc",
        "config": {
            "model": name, "T": args.T, "lags": list(lags), "level": args.level_single,
            "N": args.N, "seed": args.seed, "kernel": args.kernel,
            "bandwidth": args.bandwidth, "ridge_factor": args.ridge_factor,
            "correction": args.correction, "burn_in": args.burn_in,
        },
        "rejection_rate": report.rejection_rate,
        "threshold": report.threshold,
        "histogram": {"edges": list(edges), "density": list(density)},
    }
    _write_text(outdir / f"{tag}_report.json", json.dumps(payload, indent=2) + "\n")
    _write_text(outdir / f"{tag}_statistics.csv",
                _csv("replication,statistic", enumerate(report.statistics)))
    _write_text(outdir / f"{tag}_histogram.csv",
                _csv("bin_left,bin_right,density", zip(edges[:-1], edges[1:], density)))
    print(f"{name}: T={args.T} lags={','.join(map(str, lags))} N={args.N} "
          f"rejection_rate={report.rejection_rate:.4f}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    lags = _parse_lag_list(args.lags)
    kernel = _kernel_from_args(args)
    correction = _correction_from_args(args)
    spec, name = _resolve_model(args.model, args.T)
    rates = lag_scan(spec, args.T, lags, level=args.level_single,
                     replications=args.N, master_seed=args.seed, kernel=kernel,
                     correction=correction, ridge_factor=args.ridge_factor,
                     burn_in=args.burn_in)
    path = _outdir(args) / f"{args.tag or name}_scan.csv"
    _write_text(path, _csv("lag,rejection_rate", zip(lags, rates)))
    print(f"{name}: wrote per-lag rejection rates for {len(lags)} lags to {path}")
    return EXIT_OK


def _cmd_power(args) -> int:
    lags = _parse_lag_list(args.lags)
    spec, name = _resolve_model(args.model, args.T)
    profile = power_profile(local_spectrum(spec), lags, u_points=args.u_grid,
                            omega_points=args.omega_grid,
                            T=args.T if args.finite_lag_shift else None)
    path = _outdir(args) / f"{args.tag or name}_power.csv"
    rows = ((r, b.real, b.imag, abs(b)) for r, b in zip(profile.lags, profile.B_values))
    _write_text(path, _csv("lag,re,im,abs", rows))
    print(f"{name}: wrote noncentrality profile for {len(lags)} lags to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_lag_options(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, default=None,
                   help="number of consecutive lags 1..m (default 4)")
    p.add_argument("--lags", default=None,
                   help="explicit lag list, e.g. 3,17,40 or 1..10")


def _add_model_options(p: argparse.ArgumentParser):
    p.add_argument("--bandwidth", default="auto",
                   help="kernel bandwidth in (0, 1/2), or 'auto' for T^(-1/3)")
    p.add_argument("--kernel", choices=("daniell", "bartlett"), default="daniell")
    p.add_argument("--ridge-factor", dest="ridge_factor", type=float, default=1e-3)
    p.add_argument("--correction", choices=("gaussian", "linear", "user"),
                   default="gaussian")
    p.add_argument("--psi", default=None,
                   help="comma-separated MA coefficients for --correction linear")
    p.add_argument("--kappa4", type=float, default=None,
                   help="innovation fourth cumulant for --correction linear")
    p.add_argument("--kappa", default=None,
                   help="comma-separated per-lag kappa values for --correction user")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=500)


def _add_study_options(p: argparse.ArgumentParser):
    """Replication, seed, level and output options of the Monte Carlo commands."""
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", dest="level_single", type=float, default=0.05)
    p.add_argument("--outdir", default=None)
    p.add_argument("--tag", default=None)


def _add_io_options(p: argparse.ArgumentParser):
    p.add_argument("--column", type=int, default=None,
                   help="0-based CSV column to read instead of one value per line")
    p.add_argument("--transform", choices=("sqrt-abs-logdiff2",), default=None)
    p.add_argument("--level", type=float, action="append", default=None,
                   help="significance level (repeatable; default 0.01 0.05 0.10)")
    p.add_argument("--keep-mean", action="store_true",
                   help="do not subtract the sample mean before the transform")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftstat",
        description="DFT-based Portmanteau test for second order stationarity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test a series read from a file")
    p.add_argument("input")
    _add_lag_options(p)
    _add_model_options(p)
    _add_io_options(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("segment", help="test nested dyadic blocks of a series")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=3)
    _add_lag_options(p)
    _add_model_options(p)
    _add_io_options(p)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("simulate", help="write one realization of a model")
    p.add_argument("model", help=f"preset ({', '.join(PRESET_NAMES)}) or JSON spec file")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=500)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo rejection-rate study")
    p.add_argument("model")
    p.add_argument("--T", type=int, required=True)
    _add_study_options(p)
    _add_lag_options(p)
    _add_model_options(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("scan", help="single-lag rejection rate at each lag")
    p.add_argument("model")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--lags", required=True, help="e.g. 1..120")
    _add_study_options(p)
    _add_model_options(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("power", help="noncentrality profile of a model preset")
    p.add_argument("model")
    p.add_argument("--lags", required=True, help="e.g. 1..120")
    p.add_argument("--T", type=int, default=512,
                   help="series length used by T-dependent presets")
    p.add_argument("--finite-lag-shift", action="store_true",
                   help="evaluate the denominator at the finite frequency 2*pi*r/T")
    p.add_argument("--u-grid", dest="u_grid", type=int, default=257)
    p.add_argument("--omega-grid", dest="omega_grid", type=int, default=513)
    p.add_argument("--outdir", default=None)
    p.add_argument("--tag", default=None)
    p.set_defaults(func=_cmd_power)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StationarityTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
