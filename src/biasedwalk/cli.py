"""Command line front end.

Every subcommand runs one reproducible experiment against the library and
emits a single machine-readable artifact (JSON or CSV) plus a one line
human summary.  The artifact embeds the effective configuration, so a
result file is self-describing; identical configurations produce byte
identical artifacts.  A subcommand is declared once, by the
`@_command(name, help, *opts)` line above its runner; the argument parser
is built from those declarations once per process.

A runner returns (payload, header, rows, summary) in plain Python (int,
float, str, bool, None, lists and dicts), converting numpy once with
`.tolist()`.  The one exception is the trajectory dump, whose int64 array
is both its payload's leaf and its rows, so that its integers render
through `%d` templates.  CSV renders `rows`, the one table (JSON rows
that repeat it are keyed `dict(zip(header, row))`); JSON renders the
payload in one pass.

Settings resolve in three layers: built-in defaults, then a `--config`
file of flat `key=value` lines (keys spelled like the long flags without
the leading dashes, `#` comments allowed, unknown keys ignored so one
file can serve several subcommands), then explicit flags.  A setting has
one name, its config key, in flags, files and the merged configuration,
which is plain Python too and is itself the artifact's echo.

Exit status: 0 on success, 1 for argument or domain problems (the message
names the offending flag), 2 when a computation fails numerically (an
iterative solve that cannot reach tolerance, or a resource budget that
would be exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import exact, ldp, simulate
from .errors import ConvergenceError, ResourceBudgetError
from .kernel import ModelParams, _check_site


class CliError(Exception):
    """Argument or domain problem reportable to the user (exit status 1)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a token such as -0.5,0.1 or -.5 is a (list) value, not an option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on bad arguments; route through the
    # package's own error path (status 1) instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    """One merged setting: config key, value kind, default, and the range
    that the value (every entry, for a list kind) must lie in."""

    key: str                  # config-file key, e.g. "n-list"
    kind: object              # a key of _KINDS, "bool", or a tuple of choices
    default: object = _REQUIRED
    help: str = ""
    lo: float | None = None   # least allowed value
    hi: float | None = None   # largest allowed value, excluded if hi_open
    hi_open: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key


# value kind -> (conversion of the text, what the message says it expects)
_KINDS = {
    "int": (lambda t: int(t, 10), "an integer"),
    "float": (float, "a number"),
    "ints": (lambda t: [int(c, 10) for c in t.split(",")], "comma-separated integers"),
    "floats": (lambda t: [float(c) for c in t.split(",")], "comma-separated numbers"),
    "str": (str, "a string"),
}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse(opt: _Opt, text):
    """Turn flag or config text into a value of the option's kind and check
    it against the option's range; every message names the flag."""
    if opt.kind == "bool":
        value = text if isinstance(text, bool) else _BOOLS.get(str(text).lower())
        if value is None:
            raise CliError(f"{opt.flag} expects true or false, got {text!r}")
        return value
    if opt.kind not in _KINDS:  # a tuple of choices
        if text not in opt.kind:
            raise CliError(f"{opt.flag} must be one of {'/'.join(opt.kind)}, got {text!r}")
        return text
    convert, expected = _KINDS[opt.kind]
    try:
        value = convert(str(text))
    except ValueError:
        raise CliError(f"{opt.flag} expects {expected}, got {text!r}") from None
    if opt.kind == "str" and (len(value.splitlines()) > 1 or value != value.strip()):
        raise CliError(f"{opt.flag} must be one line with no outer whitespace, got {value!r}")
    name = opt.flag + " entries" if isinstance(value, list) else opt.flag
    for v in value if isinstance(value, list) else (value,):
        # written so that NaN fails every bound
        if (opt.lo is not None and not opt.lo <= v) or (
            opt.hi is not None and not (v < opt.hi if opt.hi_open else v <= opt.hi)
        ):
            bound = (f"be at least {opt.lo}" if opt.hi is None else
                     f"lie in [{opt.lo}, {opt.hi}{')' if opt.hi_open else ']'}")
            raise CliError(f"{name} must {bound}, got {v}")
        if isinstance(v, float) and not math.isfinite(v):
            raise CliError(f"{name} must be finite, got {v}")
    return value


SHARED_OPTS = (
    _Opt("dim", "int", help="lattice dimension d >= 1", lo=1),
    _Opt("lambda", "float", help="bias parameter in [0, 1)", lo=0, hi=1, hi_open=True),
    _Opt("seed", "int", default=0, help="stream seed (default 0)", lo=0, hi=2**64 - 1),
    _Opt("format", ("csv", "json"), default="json", help="artifact format (default json)"),
)

# --out and --config steer the plumbing, not the experiment, so they stay
# outside the merged configuration, which is the artifact's echo.
PLUMBING_OPTS = (
    _Opt("out", "str", default=None, help="artifact path (default stdout)"),
    _Opt("config", "str", default=None, help="key=value config file"),
)


def _steps_paths(steps_default: int, paths_default: int, min_steps: int = 1):
    return (
        _Opt("steps", "int", default=steps_default, lo=min_steps,
             help=f"steps per path (default {steps_default})"),
        _Opt("paths", "int", default=paths_default, lo=1,
             help=f"number of paths (default {paths_default})"),
    )


@dataclass(frozen=True)
class _Command:
    name: str
    opts: tuple[_Opt, ...]
    run: object               # cfg dict -> (payload, header, rows, summary)
    help: str


# name -> command, in the order --help lists them; filled by @_command
_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str, *opts: _Opt):
    """Register the decorated runner as subcommand `name`, which takes the
    shared options and then `opts`."""
    def register(run):
        _COMMANDS[name] = _Command(name, opts, run, help)
        return run
    return register


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
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
    """Resolve every setting from its flag, else the --config file, else its
    default; flag and file text go through the same parse.  The result,
    keyed by config key, is the configuration the artifact echoes."""
    file_values = _load_config_file(args.config) if args.config else {}
    cfg: dict = {"command": command.name}
    for opt in SHARED_OPTS + command.opts:
        text = getattr(args, opt.key)
        if text is None:
            text = file_values.get(opt.key)
        if text is not None:
            cfg[opt.key] = _parse(opt, text)
        elif opt.default is _REQUIRED:
            raise CliError(f"{command.name}: {opt.flag} is required")
        else:
            cfg[opt.key] = opt.default
    return cfg


def _params(cfg: dict) -> ModelParams:
    return ModelParams(cfg["dim"], cfg["lambda"])


def _start(p: ModelParams, cfg: dict, default, reach: int):
    """The --start site, checked to stay in the int64 range for reach
    steps, or default when it is not given."""
    start = cfg.get("start")
    if start is None:
        return default
    if len(start) != p.dim:
        raise CliError(f"--start needs {p.dim} comma-separated coordinates")
    return _check_site(p, start, orthant=True, name="--start", reach=reach)


def _json(value, pad: str = "") -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True, allow_nan=False),
    written in one pass, with each non-finite float as its repr in quotes."""
    if type(value) in (int, float):
        return repr(value) if -math.inf < value < math.inf else f'"{value!r}"'
    if isinstance(value, np.ndarray) and value.dtype.kind == "i":
        return _int_block(value, pad)
    if not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)  # a string, bool, None, [] or {}
    inner = pad + "  "
    if isinstance(value, list):
        return "[\n" + ",\n".join([inner + _json(v, inner) for v in value]) + f"\n{pad}]"
    items = [f"{inner}{json.encoder.encode_basestring_ascii(k)}: {_json(value[k], inner)}"
             for k in sorted(value)]
    return "{\n" + ",\n".join(items) + f"\n{pad}}}"


# The most integers one %d fill takes.  One fill of a whole large array
# grows the heap in steps that later allocations leave fragmented, so the
# resident size of a process that dumps again and again creeps up.
_FILL_VALUES = 1024


def _filled(item: str, sep: str, a: np.ndarray) -> str:
    """sep.join(item % tuple(b.ravel().tolist()) for b in a), filled a block
    of items along the first axis at a time."""
    k = max(1, _FILL_VALUES * len(a) // max(a.size, 1))
    blocks = (a[j:j + k] for j in range(0, len(a), k))
    return sep.join([sep.join([item] * len(b)) % tuple(b.ravel().tolist()) for b in blocks])


def _int_block(a: np.ndarray, pad: str) -> str:
    """The text of _json(a.tolist(), pad) for an integer array: each item
    along the first axis fills one %d template nested one level per
    further axis."""
    if not a.ndim or not a.size:
        return _json(a.tolist(), pad)
    pads = [pad + "  " * k for k in range(a.ndim + 1)]
    template = "%d"
    for size, outer, inner in reversed(list(zip(a.shape[1:], pads[1:], pads[2:]))):
        template = "[\n" + ",\n".join([inner + template] * size) + f"\n{outer}]"
    return "[\n" + _filled(pads[1] + template, ",\n", a) + f"\n{pad}]"


def _cell(value) -> str:
    """Text of a CSV cell or of a config value in a CSV comment."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_cell(v) for v in value)
    return str(value)


def _csv_table(header: list[str], rows) -> str:
    """The table of a list of rows, or of an int64 2-D array, whose rows
    each fill one %d line."""
    if isinstance(rows, np.ndarray):
        line = ",".join(["%d"] * rows.shape[1]) + "\n"
        return _csv_table(header, []) + _filled(line, "", rows)
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _render_artifact(cfg: dict, payload: dict, header: list[str], rows) -> str:
    """The artifact in the requested format only: the payload as JSON, or
    the rows as a CSV table; both carry the effective configuration."""
    if cfg["format"] == "json":
        return _json({"config": cfg, **payload}) + "\n"
    comments = "".join(
        f"# {key}={_cell(value)}\n" for key, value in sorted(cfg.items()) if value is not None
    )
    return comments + _csv_table(header, rows)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


_N_LIST = _Opt("n-list", "ints", help="horizons n1,n2,... to evaluate", lo=1)


@_command("simulate", "run a batch of walks and report batch statistics",
          *_steps_paths(1000, 100, min_steps=0),
          _Opt("start", "ints", default=None, lo=0, hi=2**63 - 1,
               help="start site a,b,... (default origin)"),
          _Opt("dump-trajectories", "bool", default=False,
               help="emit every path instead of batch statistics"))
def _run_simulate(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(p, _start(p, cfg, (0,) * p.dim, cfg["steps"]), cfg["steps"],
                            cfg["paths"], seed=cfg["seed"])
    if cfg["dump-trajectories"]:
        states = simulate.trajectories(plan)
        header = ["path", "step"] + [f"x{i + 1}" for i in range(p.dim)]
        # path, step, x1..xd: one int64 row per visited site
        paths, steps = np.indices(states.shape[:2]).reshape(2, -1, 1)
        rows = np.hstack([paths, steps, states.reshape(-1, p.dim)])
        summary = f"simulate: dumped {plan.paths} trajectories of {plan.steps} steps"
        return {"trajectories": states}, header, rows, summary
    if plan.steps < 1:
        raise CliError(f"--steps must be at least 1 for batch statistics, got {plan.steps}")
    batch = simulate.simulate_batch(plan)
    histogram = dict(sorted(Counter(batch.boundary_visit_counts.tolist()).items()))
    endpoint, cov = batch.mean_endpoint.tolist(), batch.cov_scaled.tolist()
    drift = batch.martingale_mean.tolist()
    payload = {
        "mean_endpoint": endpoint,
        "cov_scaled": cov,
        "martingale_mean": drift,
        "boundary_visits": {str(k): v for k, v in histogram.items()},
    }
    rows = [["mean_endpoint", i, "", v] for i, v in enumerate(endpoint)]
    rows += [["cov_scaled", i, j, v] for i, row in enumerate(cov) for j, v in enumerate(row)]
    rows += [["martingale_mean", i, "", v] for i, v in enumerate(drift)]
    rows += [["boundary_visits", visits, "", n] for visits, n in histogram.items()]
    mean = ", ".join(f"{v:.6g}" for v in endpoint)
    summary = f"simulate: paths={plan.paths} steps={plan.steps} mean_endpoint=[{mean}]"
    return payload, ["stat", "i", "j", "value"], rows, summary


def _origin_batch(cfg: dict) -> tuple[ModelParams, simulate.SimPlan]:
    p = _params(cfg)
    return p, simulate.SimPlan(p, (0,) * p.dim, cfg["steps"], cfg["paths"],
                               seed=cfg["seed"])


@_command("speed", "compare mean endpoint against the escape speed",
          *_steps_paths(10000, 1000))
def _run_speed(cfg: dict):
    p, plan = _origin_batch(cfg)
    batch = simulate.simulate_batch(plan)
    observed, limit = batch.mean_endpoint.tolist(), p.speed.tolist()
    errors = np.abs(batch.mean_endpoint - p.speed).tolist()
    payload = {"observed": observed, "limit": limit, "max_abs_error": max(errors)}
    rows = [[i + 1, *cols] for i, cols in enumerate(zip(observed, limit, errors))]
    summary = f"speed: max abs error {max(errors):.6g} over {p.dim} coordinates"
    return payload, ["coord", "observed", "limit", "abs_error"], rows, summary


@_command("clt", "compare scaled endpoint covariance against its limit",
          *_steps_paths(10000, 10000))
def _run_clt(cfg: dict):
    p, plan = _origin_batch(cfg)
    sigma = ldp.sigma_matrix(p)
    # at d = 1 it is 4 lam/(1+lam)^2, whose norm is 0 at lam = 0 and underflows below about 4e-163
    if not np.linalg.norm(sigma):
        raise CliError(f"clt: --lambda {p.lam!r} gives a limiting covariance of norm 0 at "
                       "--dim 1, so there is no relative error to report")
    batch = simulate.simulate_batch(plan)
    rel = float(np.linalg.norm(batch.cov_scaled - sigma) / np.linalg.norm(sigma))
    cov, sigma = batch.cov_scaled.tolist(), sigma.tolist()
    payload = {"cov_scaled": cov, "sigma": sigma, "frobenius_rel_error": rel}
    rows = [[i + 1, j + 1, cov[i][j], sigma[i][j]] for i in range(p.dim) for j in range(p.dim)]
    summary = f"clt: Frobenius relative error {rel:.6g}"
    return payload, ["i", "j", "observed", "limit"], rows, summary


@_command("martingale", "sample moments of the compensated increments",
          *_steps_paths(1000, 1000))
def _run_martingale(cfg: dict):
    p, plan = _origin_batch(cfg)
    diag = simulate.martingale_diagnostic(plan)
    mean, variance = diag.mean.tolist(), diag.variance.tolist()
    rows = [[i + 1, m, v] for i, (m, v) in enumerate(zip(mean, variance))]
    summary = f"martingale: max |mean| {max(map(abs, mean)):.6g}"
    return {"mean": mean, "variance": variance}, ["coord", "mean", "variance"], rows, summary


@_command("boundary", "histogram of per-path boundary visit counts",
          *_steps_paths(1000, 1000))
def _run_boundary(cfg: dict):
    _, plan = _origin_batch(cfg)
    histogram = simulate.boundary_visits(plan)
    summary = f"boundary: {len(histogram)} distinct visit counts over {plan.paths} paths"
    return ({"histogram": {str(k): v for k, v in histogram.items()}},
            ["visits", "paths"], [[k, v] for k, v in histogram.items()], summary)


@_command("mgf", "exact log-mgf per horizon against the limit",
          _Opt("s", "floats", help="tilt vector v1,...,vd"), _N_LIST)
def _run_mgf(cfg: dict):
    p = _params(cfg)
    s = cfg["s"]
    if len(s) != p.dim:
        raise CliError(f"--s needs {p.dim} comma-separated components")
    limit = ldp.log_psi(p, s)
    rows = []
    for n in cfg["n-list"]:
        value = exact.log_mgf(p, (0,) * p.dim, n, s)
        rows.append([n, value, value / n, limit, value / n - limit])
    header = ["n", "log_mgf", "scaled", "limit", "gap"]
    summary = f"mgf: final |gap| {abs(rows[-1][4]):.6g} at n={rows[-1][0]}"
    records = [dict(zip(header, row)) for row in rows]
    return {"s": s, "rows": records}, header, rows, summary


@_command("return-prob", "exact return probabilities up to a horizon",
          _Opt("n-max", "int", lo=0, help="largest horizon (even horizons reported)"))
def _run_return_prob(cfg: dict):
    p = _params(cfg)
    rows = [[n, q, math.log(q) if q > 0 else -math.inf]
            for n, q in exact.return_probability_profile(p, cfg["n-max"])]
    header = ["n", "probability", "log_prob"]
    summary = f"return-prob: P(X_{rows[-1][0]} = 0) = {rows[-1][1]:.6g}"
    return {"rows": [dict(zip(header, row)) for row in rows]}, header, rows, summary


@_command("ballot", "path counts with and without a floor, and their inequality",
          # the largest n whose counts render within Python's default 4300
          # digits: n * floored has 4301 at n 14285, beta 119
          _Opt("n", "int", lo=1, hi=14_284, help="number of steps"),
          _Opt("alpha", "int", help="start level"),
          _Opt("beta", "int", help="end level"))
def _run_ballot(cfg: dict):
    count = exact.ballot_counts(cfg["n"], cfg["alpha"], cfg["beta"])
    lhs = count.n * count.floored
    rhs = max(abs(count.alpha - count.beta), 1) * count.total
    record = {**asdict(count), "bound_lhs": lhs, "bound_rhs": rhs, "satisfied": lhs >= rhs}
    summary = (
        f"ballot: total={count.total} floored={count.floored} "
        f"bound {'holds' if lhs >= rhs else 'FAILS'}"
    )
    return record, list(record), [list(record.values())], summary


@_command("dominate", "two-sided comparison against the drifted walk",
          _Opt("mode", ("upper", "lower"), help="which comparison bound to check"),
          _Opt("n-max", "int", lo=1, help="check n = 1..n-max"),
          _Opt("start", "ints", default=None, lo=1, hi=2**63 - 1,
               help="start site for the lower bound (default all ones)"))
def _run_dominate(cfg: dict):
    p = _params(cfg)
    upper = cfg["mode"] == "upper"
    if upper and cfg.get("start") is not None:
        raise CliError("dominate: --start applies only to --mode lower")
    reports = exact.domination_profile(p, cfg["mode"], cfg["n-max"],
                                       start=_start(p, cfg, None, cfg["n-max"]))
    header = ["n", "cells_checked", "max_violation" if upper else "min_slack"]
    rows = [[r.n, r.cells_checked, getattr(r, header[2])] for r in reports]
    bounds = [row[2] for row in rows]
    summary = (f"dominate: upper bound, worst violation {max(bounds):.6g}" if upper else
               f"dominate: lower bound, smallest slack {min(bounds):.6g}")
    records = [{"mode": cfg["mode"], **dict(zip(header, row))} for row in rows]
    return {"rows": records}, header, rows, summary


def _require_transform_params(cfg: dict, command: str) -> ModelParams:
    if cfg["dim"] == 1 and cfg["lambda"] == 0.0:
        raise CliError(
            f"{command}: --lambda must lie in (0, 1) when --dim is 1; the "
            "rate function is undefined for the deterministic walk"
        )
    return _params(cfg)


# Points a rate-fn grid may hold.  --grid 316 at d=2 (99 856 points) took
# 2.0-3.0 s as JSON (28.6 MB) and 0.9-1.3 s as CSV (7.1 MB): cli.main in
# process with --out, 5 runs of each on a 2-core machine.
_MAX_GRID_POINTS = 100_000


@_command("rate-fn", "rate function at a point or on a grid",
          _Opt("x", "floats", default=None, help="single query point v1,...,vd"),
          _Opt("grid", "int", default=None, lo=2,
               help="steps per axis for a grid over [0,1]^d"))
def _run_rate_fn(cfg: dict):
    p = _require_transform_params(cfg, "rate-fn")
    x, grid = cfg.get("x"), cfg.get("grid")
    if (x is None) == (grid is None):
        raise CliError("rate-fn: pass exactly one of --x or --grid")
    if x is not None:
        if len(x) != p.dim:
            raise CliError(f"--x needs {p.dim} comma-separated components")
        points = np.array([x])
    else:
        # --grid is at least 2, so past this many axes the grid is over
        # budget, and the power need not be formed
        axes = _MAX_GRID_POINTS.bit_length()
        if p.dim >= axes or grid**p.dim > _MAX_GRID_POINTS:
            count = grid**p.dim if p.dim < axes else f"more than {_MAX_GRID_POINTS}"
            raise ResourceBudgetError(f"--grid {grid} gives {count} points in "
                                      f"dimension {p.dim}, budget is {_MAX_GRID_POINTS}")
        axis = np.linspace(0.0, 1.0, grid)
        mesh = np.meshgrid(*([axis] * p.dim), indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
    columns = {"x": points.tolist(), **ldp.rate_functions(p, points)}
    columns["class"] = columns.pop("domain_class")
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    header = [f"x{i + 1}" for i in range(p.dim)] + ["rate", "class", "kkt_residual"]
    rows = [[*r["x"], r["value"], r["class"], r["kkt_residual"]] for r in records]
    if x is not None:
        summary = f"rate-fn: value={records[0]['value']!r} class={records[0]['class']}"
        return records[0], header, rows, summary
    finite = sum(1 for v in columns["value"] if not math.isinf(v))
    summary = f"rate-fn: grid {grid}^{p.dim}, {finite}/{len(records)} points finite"
    return {"rows": records}, header, rows, summary


@_command("matrix-check", "deviation of the scaling-matrix factorization")
def _run_matrix_check(cfg: dict):
    p = _params(cfg)
    deviation = ldp.clt_matrix_check(p)
    summary = f"matrix-check: max |M M^T - Sigma| = {deviation:.3e}"
    return ({"max_abs_deviation": deviation}, ["dim", "lambda", "max_abs_deviation"],
            [[p.dim, p.lam, deviation]], summary)


@_command("path-rate", "action of a piecewise linear scaled path",
          _Opt("path", "str", help="JSON file of {t, phi} breakpoints"))
def _run_path_rate(cfg: dict):
    p = _require_transform_params(cfg, "path-rate")
    try:
        breakpoints = json.loads(Path(cfg["path"]).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as err:
        # ValueError: not UTF-8, not JSON, or an integer past Python's digit limit
        raise CliError(f"--path: cannot read {cfg['path']!r}: {err}") from None
    # checked here to say what the file holds; path_from_json would report missing keys
    if not isinstance(breakpoints, list):
        raise CliError(f"--path: {cfg['path']!r} must hold a JSON array of breakpoints")
    try:
        path = ldp.path_from_json(breakpoints)
    except ValueError as err:
        raise CliError(f"--path: {cfg['path']!r}: {err}") from None
    if path.dim != p.dim:
        raise CliError(
            f"--path breakpoints have dimension {path.dim}, --dim is {p.dim}"
        )
    slopes = path.slopes()
    rates = ldp._slope_rates(p, slopes)
    action = ldp._action(path, rates)
    times = path.times
    segments = [{"t0": t0, "t1": t1, "slope": slope, "rate": rate}
                for t0, t1, slope, rate in zip(times, times[1:], slopes.tolist(), rates)]
    header = ["t0", "t1"] + [f"slope{i + 1}" for i in range(p.dim)] + ["rate"]
    rows = [[seg["t0"], seg["t1"], *seg["slope"], seg["rate"]] for seg in segments]
    summary = f"path-rate: action={action!r} over {len(segments)} segments"
    return {"action": action, "segments": segments}, header, rows, summary


@_command("ldp-consistency", "exact tail rates against the limiting rate",
          _Opt("a", "float", lo=0, hi=1, help="tail threshold in [0, 1]"), _N_LIST)
def _run_ldp_consistency(cfg: dict):
    p = _require_transform_params(cfg, "ldp-consistency")
    table = ldp.ldp_consistency(p, cfg["a"], cfg["n-list"])
    header = ["n", "tail_prob", "empirical_rate", "limit_rate", "gap"]
    rows = [list(astuple(r)) for r in table]
    last = table[-1]
    summary = (
        f"ldp-consistency: gap {last.gap:.6g} at n={last.n} "
        f"(limit {last.limit_rate:.6g})"
    )
    return {"rows": [dict(zip(header, row)) for row in rows]}, header, rows, summary


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="biasedwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in _COMMANDS.values():
        sp = sub.add_parser(command.name, help=command.help)
        for opt in SHARED_OPTS + command.opts + PLUMBING_OPTS:
            if opt.kind == "bool":
                sp.add_argument(opt.flag, dest=opt.key, action="store_const",
                                const=True, default=None, help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.key, default=None,
                                metavar="V", help=opt.help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required (see --help)")
        command = _COMMANDS[args.command]
        cfg = _merge(command, args)
        payload, header, rows, summary = command.run(cfg)
        artifact = _render_artifact(cfg, payload, header, rows)
        if args.out is not None:
            try:
                # a name given in a non-UTF-8 locale holds its undecodable
                # bytes as surrogates, which go out as the same bytes
                Path(args.out).write_text(artifact, encoding="utf-8", errors="surrogateescape")
            except OSError as err:
                raise CliError(f"--out: cannot write {args.out!r}: {err.strerror}") from None
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConvergenceError, ResourceBudgetError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out is not None:
        print(summary)
    else:
        sys.stdout.write(artifact)
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
