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
import json
import math
import re
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

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


# value kind -> (conversion of the text, what the message says it expects)
_KINDS = {
    "int": (lambda t: int(t, 10), "an integer"),
    "float": (float, "a number"),
    "ints": (lambda t: tuple(int(c, 10) for c in t.split(",")),
             "comma-separated integers"),
    "floats": (lambda t: tuple(float(c) for c in t.split(",")),
               "comma-separated numbers"),
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
    if isinstance(opt.kind, tuple):
        if text not in opt.kind:
            raise CliError(f"{opt.flag} must be one of {'/'.join(opt.kind)}, got {text!r}")
        return text
    convert, expected = _KINDS[opt.kind]
    try:
        value = convert(str(text))
    except ValueError:
        raise CliError(f"{opt.flag} expects {expected}, got {text!r}") from None
    name = opt.flag + " entries" if isinstance(value, tuple) else opt.flag
    for v in value if isinstance(value, tuple) else (value,):
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
# outside the merged/echoed configuration.
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
    run: object               # cfg dict -> (payload, csv header, csv rows, summary)
    help: str

    @property
    def all_opts(self) -> tuple[_Opt, ...]:
        """The shared options, each replaced by the command's own option of
        the same key, then the command's other options."""
        return tuple({opt.key: opt for opt in SHARED_OPTS + self.opts}.values())


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
    """Resolve every setting from its flag, else the --config file, else its
    default; flag and file text go through the same parse."""
    file_values = _load_config_file(args.config) if args.config else {}
    cfg: dict = {"command": command.name, "out": args.out}
    for opt in command.all_opts:
        text = getattr(args, opt.dest)
        if text is None:
            text = file_values.get(opt.key)
        if text is not None:
            cfg[opt.dest] = _parse(opt, text)
        elif opt.default is _REQUIRED:
            raise CliError(f"{command.name}: {opt.flag} is required")
        else:
            cfg[opt.dest] = opt.default
    return cfg


def _params(cfg: dict) -> ModelParams:
    return ModelParams(cfg["dim"], cfg["lambda"])


def _start(cfg: dict, default: tuple[int, ...]) -> tuple[int, ...]:
    start = cfg.get("start")
    if start is None:
        return default
    if len(start) != cfg["dim"]:
        raise CliError(f"--start needs {cfg['dim']} comma-separated coordinates")
    return start


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


def _cell(value) -> str:
    """Text of a CSV cell or of a config value in a CSV comment."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_cell(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _render_artifact(command: _Command, cfg: dict, payload: dict, header: list[str],
                     rows) -> str:
    """The artifact in the requested format only: the payload as JSON, or
    the rows as a CSV table; both carry the effective configuration."""
    echo = {"command": cfg["command"]}
    echo.update((opt.key, cfg[opt.dest]) for opt in command.all_opts)
    if cfg["format"] == "json":
        body = {"config": echo, **payload}
        return json.dumps(_jsonable(body), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    comments = "".join(
        f"# {key}={_cell(value)}\n"
        for key, value in sorted(echo.items())
        if value is not None
    )
    return comments + _csv_table(header, list(rows))


def _records(header: list[str], records: list[dict]) -> list[list]:
    """CSV rows holding the header's fields of each record."""
    return [[record[key] for key in header] for record in records]


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_simulate(cfg: dict):
    p = _params(cfg)
    plan = simulate.SimPlan(
        p, _start(cfg, (0,) * p.dim), cfg["steps"], cfg["paths"], seed=cfg["seed"]
    )
    if cfg["dump_trajectories"]:
        states = simulate.trajectories(plan).tolist()
        header = ["path", "step"] + [f"x{i + 1}" for i in range(p.dim)]
        rows = ([j, k, *site] for j, path in enumerate(states)
                for k, site in enumerate(path))
        summary = f"simulate: dumped {plan.paths} trajectories of {plan.steps} steps"
        return {"trajectories": states}, header, rows, summary
    if plan.steps < 1:
        raise CliError(f"--steps must be at least 1 for batch statistics, got {plan.steps}")
    batch = simulate.simulate_batch(plan)
    histogram = dict(sorted(Counter(batch.boundary_visit_counts.tolist()).items()))
    payload = {
        "mean_endpoint": batch.mean_endpoint,
        "cov_scaled": batch.cov_scaled,
        "martingale_mean": batch.martingale_mean,
        "boundary_visits": {str(k): v for k, v in histogram.items()},
    }
    rows = [["mean_endpoint", i, "", v] for i, v in enumerate(batch.mean_endpoint)]
    rows += [["cov_scaled", i, j, batch.cov_scaled[i, j]]
             for i in range(p.dim) for j in range(p.dim)]
    rows += [["martingale_mean", i, "", v] for i, v in enumerate(batch.martingale_mean)]
    rows += [["boundary_visits", visits, "", n] for visits, n in histogram.items()]
    mean = ", ".join(f"{v:.6g}" for v in batch.mean_endpoint)
    summary = f"simulate: paths={plan.paths} steps={plan.steps} mean_endpoint=[{mean}]"
    return payload, ["stat", "i", "j", "value"], rows, summary


def _origin_batch(cfg: dict) -> tuple[ModelParams, simulate.SimPlan]:
    p = _params(cfg)
    return p, simulate.SimPlan(p, (0,) * p.dim, cfg["steps"], cfg["paths"],
                               seed=cfg["seed"])


def _run_speed(cfg: dict):
    p, plan = _origin_batch(cfg)
    batch = simulate.simulate_batch(plan)
    limit = p.speed
    errors = np.abs(batch.mean_endpoint - limit)
    payload = {
        "observed": batch.mean_endpoint,
        "limit": limit,
        "max_abs_error": float(errors.max()),
    }
    rows = [[i + 1, batch.mean_endpoint[i], limit[i], errors[i]] for i in range(p.dim)]
    summary = f"speed: max abs error {errors.max():.6g} over {p.dim} coordinates"
    return payload, ["coord", "observed", "limit", "abs_error"], rows, summary


def _run_clt(cfg: dict):
    p, plan = _origin_batch(cfg)
    batch = simulate.simulate_batch(plan)
    sigma = ldp.sigma_matrix(p)
    rel = float(np.linalg.norm(batch.cov_scaled - sigma) / np.linalg.norm(sigma))
    payload = {"cov_scaled": batch.cov_scaled, "sigma": sigma, "frobenius_rel_error": rel}
    rows = [[i + 1, j + 1, batch.cov_scaled[i, j], sigma[i, j]]
            for i in range(p.dim) for j in range(p.dim)]
    summary = f"clt: Frobenius relative error {rel:.6g}"
    return payload, ["i", "j", "observed", "limit"], rows, summary


def _run_martingale(cfg: dict):
    p, plan = _origin_batch(cfg)
    diag = simulate.martingale_diagnostic(plan)
    rows = [[i + 1, diag.mean[i], diag.variance[i]] for i in range(p.dim)]
    summary = f"martingale: max |mean| {np.abs(diag.mean).max():.6g}"
    return ({"mean": diag.mean, "variance": diag.variance},
            ["coord", "mean", "variance"], rows, summary)


def _run_boundary(cfg: dict):
    _, plan = _origin_batch(cfg)
    histogram = simulate.boundary_visits(plan)
    summary = f"boundary: {len(histogram)} distinct visit counts over {plan.paths} paths"
    return ({"histogram": {str(k): v for k, v in histogram.items()}},
            ["visits", "paths"], [[k, v] for k, v in histogram.items()], summary)


def _run_mgf(cfg: dict):
    p = _params(cfg)
    s = cfg["s"]
    if len(s) != p.dim:
        raise CliError(f"--s needs {p.dim} comma-separated components")
    limit = ldp.log_psi(p, s)
    records = []
    for n in cfg["n_list"]:
        value = exact.log_mgf(p, (0,) * p.dim, n, s)
        records.append({"n": n, "log_mgf": value, "scaled": value / n, "limit": limit,
                        "gap": value / n - limit})
    header = ["n", "log_mgf", "scaled", "limit", "gap"]
    last = records[-1]
    summary = f"mgf: final |gap| {abs(last['gap']):.6g} at n={last['n']}"
    return {"s": list(s), "rows": records}, header, _records(header, records), summary


def _run_return_prob(cfg: dict):
    p = _params(cfg)
    records = [
        {"n": n, "probability": q, "log_prob": math.log(q) if q > 0 else -math.inf}
        for n, q in exact.return_probability_profile(p, cfg["n_max"])
    ]
    header = ["n", "probability", "log_prob"]
    last = records[-1]
    summary = f"return-prob: P(X_{last['n']} = 0) = {last['probability']:.6g}"
    return {"rows": records}, header, _records(header, records), summary


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
    summary = (
        f"ballot: total={count.total} floored={count.floored} "
        f"bound {'holds' if lhs >= rhs else 'FAILS'}"
    )
    return payload, list(payload), [list(payload.values())], summary


def _run_dominate(cfg: dict):
    p = _params(cfg)
    upper = cfg["mode"] == "upper"
    if upper and cfg.get("start") is not None:
        raise CliError("dominate: --start applies only to --mode lower")
    reports = [
        exact.check_domination_upper(p, n) if upper
        else exact.check_domination_lower(p, _start(cfg, (1,) * p.dim), n)
        for n in range(1, cfg["n_max"] + 1)
    ]
    records = [r.as_dict() for r in reports]
    if upper:
        header = ["n", "cells_checked", "max_violation"]
        worst = max(r.max_violation for r in reports)
        summary = f"dominate: upper bound, worst violation {worst:.6g}"
    else:
        header = ["n", "cells_checked", "min_slack"]
        worst = min(r.min_slack for r in reports)
        summary = f"dominate: lower bound, smallest slack {worst:.6g}"
    return {"rows": records}, header, _records(header, records), summary


def _require_transform_params(cfg: dict, command: str) -> ModelParams:
    if cfg["dim"] == 1 and cfg["lambda"] == 0.0:
        raise CliError(
            f"{command}: --lambda must lie in (0, 1) when --dim is 1; the "
            "rate function is undefined for the deterministic walk"
        )
    return _params(cfg)


def _run_rate_fn(cfg: dict):
    p = _require_transform_params(cfg, "rate-fn")
    x, grid = cfg.get("x"), cfg.get("grid")
    if (x is None) == (grid is None):
        raise CliError("rate-fn: pass exactly one of --x or --grid")
    if x is not None:
        if len(x) != p.dim:
            raise CliError(f"--x needs {p.dim} comma-separated components")
        points = [x]
    else:
        axis = np.linspace(0.0, 1.0, grid)
        mesh = np.meshgrid(*([axis] * p.dim), indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
    results = [ldp.rate_function(p, pt) for pt in points]
    records = [
        {
            "x": [float(c) for c in pt],
            "value": res.value,
            "class": res.domain_class,
            "argmax_s": None if res.argmax_s is None else list(res.argmax_s),
            "at_infinity": res.at_infinity,
            "iterations": res.iterations,
            "kkt_residual": res.kkt_residual,
        }
        for pt, res in zip(points, results)
    ]
    header = [f"x{i + 1}" for i in range(p.dim)] + ["rate", "class", "kkt_residual"]
    rows = [[*pt, res.value, res.domain_class, res.kkt_residual]
            for pt, res in zip(points, results)]
    if x is not None:
        res = results[0]
        summary = f"rate-fn: value={res.value!r} class={res.domain_class}"
        return records[0], header, rows, summary
    finite = sum(1 for res in results if not math.isinf(res.value))
    summary = f"rate-fn: grid {grid}^{p.dim}, {finite}/{len(results)} points finite"
    return {"rows": records}, header, rows, summary


def _run_matrix_check(cfg: dict):
    p = _params(cfg)
    deviation = ldp.clt_matrix_check(p)
    summary = f"matrix-check: max |M M^T - Sigma| = {deviation:.3e}"
    return ({"max_abs_deviation": deviation}, ["dim", "lambda", "max_abs_deviation"],
            [[p.dim, p.lam, deviation]], summary)


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
    slopes = path.slopes()
    rates = [ldp.rate_function(p, slope).value for slope in slopes]
    action = ldp._action(path, rates)
    times = path.times
    segments = [
        {"t0": times[k], "t1": times[k + 1], "slope": [float(c) for c in slope],
         "rate": rate}
        for k, (slope, rate) in enumerate(zip(slopes, rates))
    ]
    header = ["t0", "t1"] + [f"slope{i + 1}" for i in range(p.dim)] + ["rate"]
    rows = [[seg["t0"], seg["t1"], *seg["slope"], seg["rate"]] for seg in segments]
    summary = f"path-rate: action={action!r} over {len(segments)} segments"
    return {"action": action, "segments": segments}, header, rows, summary


def _run_ldp_consistency(cfg: dict):
    p = _require_transform_params(cfg, "ldp-consistency")
    rows = ldp.ldp_consistency(p, cfg["a"], cfg["n_list"])
    records = [r.as_dict() for r in rows]
    header = ["n", "tail_prob", "empirical_rate", "limit_rate", "gap"]
    last = rows[-1]
    summary = (
        f"ldp-consistency: gap {last.gap:.6g} at n={last.n} "
        f"(limit {last.limit_rate:.6g})"
    )
    return {"rows": records}, header, _records(header, records), summary


_N_LIST = _Opt("n-list", "ints", help="horizons n1,n2,... to evaluate", lo=1)

_COMMANDS = {
    c.name: c
    for c in (
        _Command(
            "simulate",
            _steps_paths(1000, 100, min_steps=0)
            + (
                _Opt("start", "ints", default=None, lo=0,
                     help="start site a,b,... (default origin)"),
                _Opt("dump-trajectories", "bool", default=False,
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
            (_Opt("s", "floats", help="tilt vector v1,...,vd"), _N_LIST),
            _run_mgf,
            "exact log-mgf per horizon against the limit",
        ),
        _Command(
            "return-prob",
            (_Opt("n-max", "int", lo=0, help="largest horizon (even horizons reported)"),),
            _run_return_prob,
            "exact return probabilities up to a horizon",
        ),
        _Command(
            "ballot",
            (
                _Opt("n", "int", lo=1, help="number of steps"),
                _Opt("alpha", "int", help="start level"),
                _Opt("beta", "int", help="end level"),
            ),
            _run_ballot,
            "path counts with and without a floor, and their inequality",
        ),
        _Command(
            "dominate",
            (
                _Opt("mode", ("upper", "lower"), help="which comparison bound to check"),
                _Opt("n-max", "int", lo=1, help="check n = 1..n-max"),
                _Opt("start", "ints", default=None, lo=1,
                     help="start site for the lower bound (default all ones)"),
            ),
            _run_dominate,
            "two-sided comparison against the drifted walk",
        ),
        _Command(
            "rate-fn",
            (
                _Opt("x", "floats", default=None, help="single query point v1,...,vd"),
                _Opt("grid", "int", default=None, lo=2,
                     help="steps per axis for a grid over [0,1]^d"),
            ),
            _run_rate_fn,
            "rate function at a point or on a grid",
        ),
        _Command("matrix-check", (), _run_matrix_check,
                 "deviation of the scaling-matrix factorization"),
        _Command(
            "path-rate",
            (_Opt("path", "str", help="JSON file of {t, phi} breakpoints"),),
            _run_path_rate,
            "action of a piecewise linear scaled path",
        ),
        _Command(
            "ldp-consistency",
            (
                _Opt("dim", "int", lo=1, hi=2, help="lattice dimension d, 1 or 2"),
                _Opt("a", "float", lo=0, hi=1, help="tail threshold in [0, 1]"),
                _N_LIST,
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
        for opt in command.all_opts + PLUMBING_OPTS:
            if opt.kind == "bool":
                sp.add_argument(opt.flag, dest=opt.dest, action="store_const",
                                const=True, default=None, help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.dest, default=None,
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
        artifact = _render_artifact(command, cfg, payload, header, rows)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConvergenceError, ResourceBudgetError, OverflowError) as err:
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
