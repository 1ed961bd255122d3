"""Command line front end.

Every subcommand runs one reproducible experiment against the library and
emits a single machine-readable artifact (JSON or CSV) plus a one line
human summary.  The artifact embeds the effective configuration, so a
result file is self-describing; identical configurations produce byte
identical artifacts.

Settings resolve in three layers: built-in defaults, then a `--config`
file of flat `key=value` lines (keys spelled like the long flags without
the leading dashes, `#` comments allowed, unknown keys ignored so one
file can serve several subcommands), then explicit flags.

Exit status: 0 on success, 1 for argument or domain problems (the message
names the offending flag), 2 when a computation fails numerically (an
iterative solve that cannot reach tolerance, or a resource budget that
would be exceeded).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Without a bytecode cache, compiling simulate after ldp has loaded
# scipy.optimize would add the compiler's working memory to the process's
# peak resident size; compiled first, that memory is reused by the import.
from . import exact, simulate, ldp
from .errors import ConvergenceError, ResourceBudgetError
from .kernel import ModelParams


class CliError(Exception):
    """Argument or domain problem reportable to the user (exit status 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route through the
    # package's own error path (status 1) instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    """One merged setting: flag spelling, config key, parser, default."""

    key: str                  # config-file key, e.g. "n-list"
    parse: object             # str -> value (also applied to config text)
    default: object = _REQUIRED
    help: str = ""
    is_flag: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


def _parse_int(flag: str):
    def parse(text):
        try:
            return int(str(text), 10)
        except ValueError:
            raise CliError(f"{flag} expects an integer, got {text!r}") from None

    return parse


def _parse_float(flag: str):
    def parse(text):
        try:
            return float(text)
        except ValueError:
            raise CliError(f"{flag} expects a number, got {text!r}") from None

    return parse


def _parse_floats(flag: str):
    def parse(text):
        try:
            return tuple(float(t) for t in str(text).split(","))
        except ValueError:
            raise CliError(
                f"{flag} expects comma-separated numbers, got {text!r}"
            ) from None

    return parse


def _parse_ints(flag: str):
    def parse(text):
        try:
            return tuple(int(t, 10) for t in str(text).split(","))
        except ValueError:
            raise CliError(
                f"{flag} expects comma-separated integers, got {text!r}"
            ) from None

    return parse


def _parse_choice(flag: str, choices: tuple[str, ...]):
    def parse(text):
        value = str(text)
        if value not in choices:
            raise CliError(f"{flag} must be one of {'/'.join(choices)}, got {value!r}")
        return value

    return parse


def _parse_bool(flag: str):
    def parse(text):
        if isinstance(text, bool):
            return text
        value = str(text).lower()
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no"):
            return False
        raise CliError(f"{flag} expects true or false, got {text!r}")

    return parse


def _parse_str(flag: str):
    return lambda text: str(text)


SHARED_OPTS = (
    _Opt("dim", _parse_int("--dim"), help="lattice dimension d >= 1"),
    _Opt("lambda", _parse_float("--lambda"), help="bias parameter in [0, 1)"),
    _Opt("seed", _parse_int("--seed"), default=0, help="stream seed (default 0)"),
    _Opt(
        "format",
        _parse_choice("--format", ("csv", "json")),
        default="json",
        help="artifact format (default json)",
    ),
)

# --out and --config steer the plumbing, not the experiment, so they stay
# outside the merged/echoed configuration.
PLUMBING_OPTS = (
    _Opt("out", _parse_str("--out"), default=None, help="artifact path (default stdout)"),
    _Opt("config", _parse_str("--config"), default=None, help="key=value config file"),
)


def _steps_paths(steps_default: int, paths_default: int) -> tuple[_Opt, ...]:
    return (
        _Opt("steps", _parse_int("--steps"), default=steps_default,
             help=f"steps per path (default {steps_default})"),
        _Opt("paths", _parse_int("--paths"), default=paths_default,
             help=f"number of paths (default {paths_default})"),
    )


@dataclass(frozen=True)
class _Command:
    name: str
    opts: tuple[_Opt, ...]
    run: object               # cfg dict -> (payload, csv_text, summary)
    help: str


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"--config: cannot read {path!r}: {err}") from None
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"--config: malformed line {line!r} (need key=value)")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _merge(command: _Command, args: argparse.Namespace) -> dict:
    table = dict(vars(args))
    file_values = _load_config_file(table["config"]) if table.get("config") else {}
    cfg: dict = {"command": command.name}
    for opt in SHARED_OPTS + command.opts:
        value = table.get(opt.dest)
        if value is None and opt.key in file_values:
            value = opt.parse(file_values[opt.key])
        if value is None:
            if opt.default is _REQUIRED:
                raise CliError(f"{command.name}: {opt.flag} is required")
            value = opt.default
        cfg[opt.dest] = value
    cfg["out"] = table.get("out")
    if cfg["dim"] < 1:
        raise CliError(f"--dim must be at least 1, got {cfg['dim']}")
    if not 0.0 <= cfg["lambda"] < 1.0:
        raise CliError(f"--lambda must lie in [0, 1), got {cfg['lambda']}")
    if cfg["seed"] < 0:
        raise CliError(f"--seed must be nonnegative, got {cfg['seed']}")
    return cfg


def _params(cfg: dict) -> ModelParams:
    return ModelParams(cfg["dim"], cfg["lambda"])


def _start(cfg: dict, default: tuple[int, ...]) -> tuple[int, ...]:
    raw = cfg.get("start")
    if raw is None:
        return default
    start = tuple(raw)
    if len(start) != cfg["dim"]:
        raise CliError(f"--start needs {cfg['dim']} comma-separated coordinates")
    if any(c < 0 for c in start):
        raise CliError("--start coordinates must be nonnegative")
    return start


def _echo(command: _Command, cfg: dict) -> dict:
    echo = {"command": cfg["command"]}
    for opt in SHARED_OPTS + command.opts:
        echo[opt.key] = cfg[opt.dest]
    return echo


def _jsonable(value):
    """Rewrite a payload so json.dumps is deterministic and strict: numpy
    scalars/arrays become plain Python, non-finite floats become strings."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def _config_comment_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_config_comment_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_simulate(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(
        p, _start(cfg, (0,) * p.dim), cfg["steps"], cfg["paths"], seed=cfg["seed"]
    )
    if cfg["dump_trajectories"]:
        states = simulate.trajectories(plan)
        buf = io.StringIO()
        simulate.dump_trajectories_csv(states, buf)
        payload = {"trajectories": states.tolist()}
        summary = (
            f"simulate: dumped {plan.paths} trajectories of {plan.steps} steps"
        )
        return payload, buf.getvalue(), summary
    batch = simulate.simulate_batch(plan)
    histogram = dict(sorted(Counter(batch.boundary_visit_counts.tolist()).items()))
    payload = {
        "mean_endpoint": batch.mean_endpoint,
        "cov_scaled": batch.cov_scaled,
        "martingale_mean": batch.martingale_mean,
        "boundary_visits": {str(k): v for k, v in histogram.items()},
    }
    rows: list[list] = []
    for i, val in enumerate(batch.mean_endpoint):
        rows.append(["mean_endpoint", i, "", val])
    for i in range(p.dim):
        for j in range(p.dim):
            rows.append(["cov_scaled", i, j, batch.cov_scaled[i, j]])
    for i, val in enumerate(batch.martingale_mean):
        rows.append(["martingale_mean", i, "", val])
    for visits, count in histogram.items():
        rows.append(["boundary_visits", visits, "", count])
    csv_text = _csv_table(["stat", "i", "j", "value"], rows)
    mean = ", ".join(f"{v:.6g}" for v in batch.mean_endpoint)
    summary = f"simulate: paths={plan.paths} steps={plan.steps} mean_endpoint=[{mean}]"
    return payload, csv_text, summary


def _run_speed(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(p, (0,) * p.dim, cfg["steps"], cfg["paths"], seed=cfg["seed"])
    batch = simulate.simulate_batch(plan)
    limit = p.speed
    errors = np.abs(batch.mean_endpoint - limit)
    payload = {
        "observed": batch.mean_endpoint,
        "limit": limit,
        "max_abs_error": float(errors.max()),
    }
    rows = [
        [i + 1, batch.mean_endpoint[i], limit[i], errors[i]] for i in range(p.dim)
    ]
    csv_text = _csv_table(["coord", "observed", "limit", "abs_error"], rows)
    summary = f"speed: max abs error {errors.max():.6g} over {p.dim} coordinates"
    return payload, csv_text, summary


def _run_clt(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(p, (0,) * p.dim, cfg["steps"], cfg["paths"], seed=cfg["seed"])
    batch = simulate.simulate_batch(plan)
    sigma = ldp.sigma_matrix(p)
    rel = float(
        np.linalg.norm(batch.cov_scaled - sigma) / np.linalg.norm(sigma)
    )
    payload = {
        "cov_scaled": batch.cov_scaled,
        "sigma": sigma,
        "frobenius_rel_error": rel,
    }
    rows = [
        [i + 1, j + 1, batch.cov_scaled[i, j], sigma[i, j]]
        for i in range(p.dim)
        for j in range(p.dim)
    ]
    csv_text = _csv_table(["i", "j", "observed", "limit"], rows)
    summary = f"clt: Frobenius relative error {rel:.6g}"
    return payload, csv_text, summary


def _run_martingale(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(p, (0,) * p.dim, cfg["steps"], cfg["paths"], seed=cfg["seed"])
    diag = simulate.martingale_diagnostic(plan)
    payload = {"mean": diag.mean, "variance": diag.variance}
    rows = [[i + 1, diag.mean[i], diag.variance[i]] for i in range(p.dim)]
    csv_text = _csv_table(["coord", "mean", "variance"], rows)
    summary = f"martingale: max |mean| {np.abs(diag.mean).max():.6g}"
    return payload, csv_text, summary


def _run_boundary(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(p, (0,) * p.dim, cfg["steps"], cfg["paths"], seed=cfg["seed"])
    histogram = simulate.boundary_visits(plan)
    payload = {"histogram": {str(k): v for k, v in histogram.items()}}
    rows = [[k, v] for k, v in histogram.items()]
    csv_text = _csv_table(["visits", "paths"], rows)
    summary = (
        f"boundary: {len(histogram)} distinct visit counts over {plan.paths} paths"
    )
    return payload, csv_text, summary


def _run_mgf(cfg: dict):
    p = _params(cfg)
    s = cfg["s"]
    if len(s) != p.dim:
        raise CliError(f"--s needs {p.dim} comma-separated components")
    limit = ldp.log_psi(p, s)
    origin = (0,) * p.dim
    rows_out = []
    for n in cfg["n_list"]:
        if n < 1:
            raise CliError(f"--n-list entries must be positive, got {n}")
        value = exact.log_mgf(p, origin, n, s)
        scaled = value / n
        rows_out.append(
            {"n": n, "log_mgf": value, "scaled": scaled, "limit": limit,
             "gap": scaled - limit}
        )
    payload = {"s": list(s), "rows": rows_out}
    csv_text = _csv_table(
        ["n", "log_mgf", "scaled", "limit", "gap"],
        [[r["n"], r["log_mgf"], r["scaled"], r["limit"], r["gap"]] for r in rows_out],
    )
    summary = f"mgf: final |gap| {abs(rows_out[-1]['gap']):.6g} at n={rows_out[-1]['n']}"
    return payload, csv_text, summary


def _run_return_prob(cfg: dict):
    p = _params(cfg)
    if cfg["n_max"] < 0:
        raise CliError(f"--n-max must be nonnegative, got {cfg['n_max']}")
    profile = exact.return_probability_profile(p, cfg["n_max"])
    rows_out = [
        {"n": n, "probability": q, "log_prob": math.log(q) if q > 0 else -math.inf}
        for n, q in profile
    ]
    payload = {"rows": rows_out}
    csv_text = _csv_table(
        ["n", "probability", "log_prob"],
        [[r["n"], r["probability"], r["log_prob"]] for r in rows_out],
    )
    last = rows_out[-1]
    summary = f"return-prob: P(X_{last['n']} = 0) = {last['probability']:.6g}"
    return payload, csv_text, summary


def _run_ballot(cfg: dict):
    count = exact.ballot_counts(cfg["n"], cfg["alpha"], cfg["beta"])
    lhs = count.n * count.floored
    rhs = max(abs(count.alpha - count.beta), 1) * count.total
    payload = {
        "n": count.n,
        "alpha": count.alpha,
        "beta": count.beta,
        "total": count.total,
        "floored": count.floored,
        "bound_lhs": lhs,
        "bound_rhs": rhs,
        "satisfied": lhs >= rhs,
    }
    csv_text = _csv_table(
        ["n", "alpha", "beta", "total", "floored", "bound_lhs", "bound_rhs",
         "satisfied"],
        [[count.n, count.alpha, count.beta, count.total, count.floored, lhs, rhs,
          str(lhs >= rhs).lower()]],
    )
    summary = (
        f"ballot: total={count.total} floored={count.floored} "
        f"bound {'holds' if lhs >= rhs else 'FAILS'}"
    )
    return payload, csv_text, summary


def _run_dominate(cfg: dict):
    p = _params(cfg)
    mode = cfg["mode"]
    if cfg["n_max"] < 1:
        raise CliError(f"--n-max must be positive, got {cfg['n_max']}")
    if mode == "upper" and cfg.get("start") is not None:
        raise CliError("dominate: --start applies only to --mode lower")
    reports = []
    for n in range(1, cfg["n_max"] + 1):
        if mode == "upper":
            reports.append(exact.check_domination_upper(p, n))
        else:
            reports.append(
                exact.check_domination_lower(p, _start(cfg, (1,) * p.dim), n)
            )
    payload = {"rows": [r.as_dict() for r in reports]}
    if mode == "upper":
        header = ["n", "cells_checked", "max_violation"]
        rows = [[r.n, r.cells_checked, r.max_violation] for r in reports]
        worst = max(r.max_violation for r in reports)
        summary = f"dominate: upper bound, worst violation {worst:.6g}"
    else:
        header = ["n", "cells_checked", "min_slack"]
        rows = [[r.n, r.cells_checked, r.min_slack] for r in reports]
        worst = min(r.min_slack for r in reports)
        summary = f"dominate: lower bound, smallest slack {worst:.6g}"
    return payload, _csv_table(header, rows), summary


def _require_transform_params(cfg: dict, command: str) -> ModelParams:
    if cfg["dim"] == 1 and cfg["lambda"] == 0.0:
        raise CliError(
            f"{command}: --lambda must lie in (0, 1) when --dim is 1; the "
            "rate function is undefined for the deterministic walk"
        )
    return _params(cfg)


def _rate_row_dict(x, res: ldp.RateResult) -> dict:
    return {
        "x": [float(c) for c in x],
        "value": res.value,
        "class": res.domain_class,
        "argmax_s": None if res.argmax_s is None else list(res.argmax_s),
        "at_infinity": res.at_infinity,
        "iterations": res.iterations,
        "kkt_residual": res.kkt_residual,
    }


def _run_rate_fn(cfg: dict):
    p = _require_transform_params(cfg, "rate-fn")
    x, grid = cfg.get("x"), cfg.get("grid")
    if (x is None) == (grid is None):
        raise CliError("rate-fn: pass exactly one of --x or --grid")
    if x is not None:
        if len(x) != p.dim:
            raise CliError(f"--x needs {p.dim} comma-separated components")
        if not all(math.isfinite(c) for c in x):
            raise CliError(f"--x components must be finite, got {list(x)}")
        res = ldp.rate_function(p, x)
        payload = _rate_row_dict(x, res)
        csv_text = ldp.rate_grid_csv_text(p, [x])
        summary = f"rate-fn: value={res.value!r} class={res.domain_class}"
        return payload, csv_text, summary
    if grid < 2:
        raise CliError(f"--grid needs at least 2 steps per axis, got {grid}")
    axis = np.linspace(0.0, 1.0, grid)
    mesh = np.meshgrid(*([axis] * p.dim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    rows_out = [_rate_row_dict(pt, ldp.rate_function(p, pt)) for pt in points]
    finite = sum(1 for r in rows_out if not math.isinf(r["value"]))
    payload = {"rows": rows_out}
    csv_text = ldp.rate_grid_csv_text(p, points)
    summary = f"rate-fn: grid {grid}^{p.dim}, {finite}/{len(rows_out)} points finite"
    return payload, csv_text, summary


def _run_matrix_check(cfg: dict):
    p = _params(cfg)
    deviation = ldp.clt_matrix_check(p)
    payload = {"max_abs_deviation": deviation}
    csv_text = _csv_table(
        ["dim", "lambda", "max_abs_deviation"],
        [[p.dim, p.lam, deviation]],
    )
    summary = f"matrix-check: max |M M^T - Sigma| = {deviation:.3e}"
    return payload, csv_text, summary


def _run_path_rate(cfg: dict):
    p = _require_transform_params(cfg, "path-rate")
    try:
        text = Path(cfg["path"]).read_text()
    except OSError as err:
        raise CliError(f"--path: cannot read {cfg['path']!r}: {err}") from None
    path = ldp.path_from_json(text)
    if path.dim != p.dim:
        raise CliError(
            f"--path breakpoints have dimension {path.dim}, --dim is {p.dim}"
        )
    action = ldp.path_rate_functional(p, path)
    segments = []
    times = path.times
    for k, (dt, slope) in enumerate(zip(path.durations(), path.slopes())):
        segments.append(
            {
                "t0": times[k],
                "t1": times[k + 1],
                "slope": [float(c) for c in slope],
                "rate": ldp.rate_function(p, slope).value,
            }
        )
    payload = {"action": action, "segments": segments}
    rows = [
        [seg["t0"], seg["t1"], *seg["slope"], seg["rate"]] for seg in segments
    ]
    header = ["t0", "t1"] + [f"slope{i + 1}" for i in range(p.dim)] + ["rate"]
    csv_text = _csv_table(header, rows)
    summary = f"path-rate: action={action!r} over {len(segments)} segments"
    return payload, csv_text, summary


def _run_ldp_consistency(cfg: dict):
    p = _require_transform_params(cfg, "ldp-consistency")
    rows = ldp.ldp_consistency(p, cfg["a"], cfg["n_list"])
    payload = {"rows": [r.as_dict() for r in rows]}
    csv_text = _csv_table(
        ["n", "tail_prob", "empirical_rate", "limit_rate", "gap"],
        [[r.n, r.tail_prob, r.empirical_rate, r.limit_rate, r.gap] for r in rows],
    )
    last = rows[-1]
    summary = (
        f"ldp-consistency: gap {last.gap:.6g} at n={last.n} "
        f"(limit {last.limit_rate:.6g})"
    )
    return payload, csv_text, summary


_COMMANDS = {
    c.name: c
    for c in (
        _Command(
            "simulate",
            _steps_paths(1000, 100)
            + (
                _Opt("start", _parse_ints("--start"), default=None,
                     help="start site a,b,... (default origin)"),
                _Opt("dump-trajectories", _parse_bool("--dump-trajectories"),
                     default=False, is_flag=True,
                     help="emit every path instead of batch statistics"),
            ),
            _run_simulate,
            "run a batch of walks and report batch statistics",
        ),
        _Command("speed", _steps_paths(10000, 1000), _run_speed,
                 "compare mean endpoint against the escape speed"),
        _Command("clt", _steps_paths(10000, 10000), _run_clt,
                 "compare scaled endpoint covariance against its limit"),
        _Command("martingale", _steps_paths(1000, 1000), _run_martingale,
                 "sample moments of the compensated increments"),
        _Command("boundary", _steps_paths(1000, 1000), _run_boundary,
                 "histogram of per-path boundary visit counts"),
        _Command(
            "mgf",
            (
                _Opt("s", _parse_floats("--s"), help="tilt vector v1,...,vd"),
                _Opt("n-list", _parse_ints("--n-list"),
                     help="horizons n1,n2,... to evaluate"),
            ),
            _run_mgf,
            "exact log-mgf per horizon against the limit",
        ),
        _Command(
            "return-prob",
            (_Opt("n-max", _parse_int("--n-max"),
                  help="largest horizon (even horizons reported)"),),
            _run_return_prob,
            "exact return probabilities up to a horizon",
        ),
        _Command(
            "ballot",
            (
                _Opt("n", _parse_int("--n"), help="number of steps"),
                _Opt("alpha", _parse_int("--alpha"), help="start level"),
                _Opt("beta", _parse_int("--beta"), help="end level"),
            ),
            _run_ballot,
            "path counts with and without a floor, and their inequality",
        ),
        _Command(
            "dominate",
            (
                _Opt("mode", _parse_choice("--mode", ("upper", "lower")),
                     help="which comparison bound to check"),
                _Opt("n-max", _parse_int("--n-max"), help="check n = 1..n-max"),
                _Opt("start", _parse_ints("--start"), default=None,
                     help="start site for the lower bound (default all ones)"),
            ),
            _run_dominate,
            "two-sided comparison against the drifted walk",
        ),
        _Command(
            "rate-fn",
            (
                _Opt("x", _parse_floats("--x"), default=None,
                     help="single query point v1,...,vd"),
                _Opt("grid", _parse_int("--grid"), default=None,
                     help="steps per axis for a grid over [0,1]^d"),
            ),
            _run_rate_fn,
            "rate function at a point or on a grid",
        ),
        _Command("matrix-check", (), _run_matrix_check,
                 "deviation of the scaling-matrix factorization"),
        _Command(
            "path-rate",
            (_Opt("path", _parse_str("--path"),
                  help="JSON file of {t, phi} breakpoints"),),
            _run_path_rate,
            "action of a piecewise linear scaled path",
        ),
        _Command(
            "ldp-consistency",
            (
                _Opt("a", _parse_float("--a"), help="tail threshold in [0, 1]"),
                _Opt("n-list", _parse_ints("--n-list"),
                     help="horizons n1,n2,... to evaluate"),
            ),
            _run_ldp_consistency,
            "exact tail rates against the limiting rate",
        ),
    )
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="biasedwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in _COMMANDS.values():
        sp = sub.add_parser(command.name, help=command.help)
        for opt in SHARED_OPTS + command.opts + PLUMBING_OPTS:
            if opt.is_flag:
                sp.add_argument(opt.flag, dest=opt.dest, action="store_const",
                                const=True, default=None, help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.dest, default=None,
                                metavar="V", help=opt.help)
    return parser


def _coerce_flag_values(command: _Command, args: argparse.Namespace) -> None:
    # argparse collected raw strings; apply the same parsers used for the
    # config file so both layers go through identical validation.
    for opt in SHARED_OPTS + command.opts:
        raw = getattr(args, opt.dest)
        if raw is not None and not opt.is_flag:
            setattr(args, opt.dest, opt.parse(raw))


def _render_artifact(command: _Command, cfg: dict, payload: dict,
                     csv_text: str) -> str:
    echo = _echo(command, cfg)
    if cfg["format"] == "json":
        body = {"config": echo, **payload}
        return json.dumps(_jsonable(body), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    comments = "".join(
        f"# {key}={_config_comment_value(value)}\n"
        for key, value in sorted(echo.items())
        if value is not None
    )
    return comments + csv_text


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required (see --help)")
        command = _COMMANDS[args.command]
        _coerce_flag_values(command, args)
        cfg = _merge(command, args)
        payload, csv_text, summary = command.run(cfg)
        artifact = _render_artifact(command, cfg, payload, csv_text)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConvergenceError, ResourceBudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if cfg["out"] is not None:
        Path(cfg["out"]).write_text(artifact)
        print(summary)
    else:
        sys.stdout.write(artifact)
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
