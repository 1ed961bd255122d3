"""The benchmark's workloads, their inputs and their output checks.

A workload is a function that builds one round of operations from a
random generator.  The generator is seeded from the run's seed and the
round number, so every round gets fresh inputs (bias, tilts, query points,
stream seeds) drawn from narrow ranges that keep the workload's regime,
and a round can never reuse a result of an earlier one.  Problem sizes are
fixed, so every round does the same amount of work.

An operation is one library call or one command line invocation.  Its
check runs outside the timed region and returns a list of problems; a
raised exception, a non-zero exit or a problem marks the operation failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biasedwalk import ModelParams, cli, exact, ldp, simulate
from biasedwalk.simulate import SimPlan
from tracing import sweep_size

# Standard errors allowed on Monte Carlo statistics before a check fails.
Z = 6.0


@dataclass
class Op:
    """One timed operation and the check of its result."""

    label: str
    call: Callable[[], object]
    work: float                                 # in the workload's work unit
    check: Callable[[object], list[str]]
    points: int = 0                             # rate queries asked for
    artifact: Path | None = None                # file a CLI invocation writes


@dataclass(frozen=True)
class Context:
    tmp: Path        # empty directory for this round's files, inside the checkout
    tiny: bool       # self-check and warm-up sizes


@dataclass(frozen=True)
class Workload:
    name: str
    layer: str
    work_unit: str
    build: Callable[[np.random.Generator, int, Context], list[Op]]
    run_checks: Callable[[], list[str]] | None = None   # once per run


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _check_batch(plan: SimPlan):
    p, n, m = plan.params, plan.steps, plan.paths

    def check(s: simulate.BatchSummary) -> list[str]:
        problems = []
        visits = s.boundary_visit_counts
        if visits.shape != (m,) or visits.min() < 1 or visits.max() > n + 1:
            problems.append("boundary visit counts outside [1, n+1]")
        # E|X_n^i|/n - v is the mean over steps of f_i(X_k) - v, which is 0
        # off the hyperplanes and lies in [-v, 2/D_1 - v] on them (D_1 the
        # site weight with one zero coordinate), so the boundary visits
        # bound the finite-n bias; sampling noise adds Z standard errors.
        v = float(p.speed[0])
        d1 = p.dim + 1 + p.lam * (p.dim - 1)
        share = 1.25 * float(visits.mean()) / n
        se = np.sqrt(np.diag(s.cov_scaled) / (n * m))
        dev = s.mean_endpoint - v
        if np.any(dev < -v * share - Z * se) or np.any(dev > (2 / d1 - v) * share + Z * se):
            problems.append(f"mean endpoint {s.mean_endpoint} too far from speed {v}")
        # Each increment has variance at most P(move on coordinate i) <= 2/d.
        if np.any(np.abs(s.martingale_mean) > Z * math.sqrt(2 / p.dim / (n * m))):
            problems.append(f"martingale mean {s.martingale_mean} not within {Z} SE of 0")
        return problems

    return check


def _check_martingale(plan: SimPlan):
    count = plan.steps * plan.paths

    def check(diag: simulate.MartingaleDiagnostic) -> list[str]:
        if np.any(diag.variance <= 0) or np.any(diag.variance > 1):
            return [f"increment variance {diag.variance} outside (0, 1]"]
        if np.any(np.abs(diag.mean) > Z * np.sqrt(diag.variance / count)):
            return [f"martingale mean {diag.mean} not within {Z} SE of 0"]
        return []

    return check


def _check_trajectories(plan: SimPlan):
    shape = (plan.paths, plan.steps + 1, plan.params.dim)

    def check(states: np.ndarray) -> list[str]:
        if states.shape != shape:
            return [f"trajectories have shape {states.shape}, expected {shape}"]
        if np.any(states[:, 0] != plan.start) or states.min() < 0:
            return ["trajectories leave the start or the orthant"]
        if np.any(np.abs(np.diff(states, axis=1)).sum(axis=2) != 1):
            return ["a trajectory step is not a unit move"]
        return []

    return check


def _check_visits(plan: SimPlan):
    def check(histogram: dict[int, int]) -> list[str]:
        if sum(histogram.values()) != plan.paths:
            return ["visit histogram does not count every path"]
        if min(histogram) < 1 or max(histogram) > plan.steps + 1:
            return ["visit counts outside [1, n+1]"]
        return []

    return check


_SIM_CHECKS = {
    "simulate_batch": _check_batch,
    "martingale_diagnostic": _check_martingale,
    "trajectories": _check_trajectories,
    "boundary_visits": _check_visits,
}


def _sim_op(name: str, plan: SimPlan) -> Op:
    return Op(
        label=f"{name} d={plan.params.dim}",
        # looked up at call time, so a traced run sees the wrapper
        call=lambda: getattr(simulate, name)(plan),
        work=plan.steps * plan.paths,
        check=_SIM_CHECKS[name](plan),
    )


# A fixed plan whose results are pinned bit for bit: simulation must stay
# identical for a given plan, so any change to these digests is a failure.
CANARY = SimPlan(ModelParams(2, 0.5), (0, 0), 64, 256, seed=20181108)
CANARY_DIGEST = "dc36b71b22693d21"


def canary_digest() -> str:
    endpoints = simulate.trajectories(CANARY)[:, -1, :]
    batch = simulate.simulate_batch(CANARY)
    h = hashlib.sha256()
    for arr in (endpoints, batch.boundary_visit_counts, batch.mean_endpoint):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def check_canary() -> list[str]:
    digest = canary_digest()
    if digest != CANARY_DIGEST:
        return [f"canary plan digest {digest} != recorded {CANARY_DIGEST}"]
    return []


def build_mc_transient(rng: np.random.Generator, r: int, ctx: Context) -> list[Op]:
    steps, paths = (50, 200) if ctx.tiny else (1000, 5000)
    ops = []
    for d in (2, 3):
        for name in ("simulate_batch", "martingale_diagnostic"):
            p = ModelParams(d, float(rng.uniform(0.3, 0.6)))
            ops.append(_sim_op(name, SimPlan(p, (0,) * d, steps, paths, seed=_seed(rng))))
    return ops


def build_mc_boundary(rng: np.random.Generator, r: int, ctx: Context) -> list[Op]:
    steps, paths, kept = (20, 300, 50) if ctx.tiny else (200, 25000, 5000)
    ops = []
    for name in ("simulate_batch", "martingale_diagnostic", "trajectories", "boundary_visits"):
        p = ModelParams(3, float(rng.uniform(0.88, 0.92)))
        m = kept if name == "trajectories" else paths
        ops.append(_sim_op(name, SimPlan(p, (0, 0, 0), steps, m, seed=_seed(rng))))
    return ops


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _mgf_tolerance(n: int) -> float:
    # |Lambda_n(s)/n - ln psi(s)| decays like ln(n)/n for these tilts.
    return (1.0 + math.log(n)) / n


def _check_law(p: ModelParams, n: int):
    def check(law: dict) -> list[str]:
        problems = []
        mass = math.fsum(law.values())
        if abs(mass - 1.0) > 1e-12 or min(law.values()) < 0.0:
            problems.append(f"law after {n} steps has mass {mass!r}")
        # one small-n sweep against the rational path enumeration
        q = ModelParams(2, p.lam)
        fast = exact.propagate(q, (1, 0), 6)
        oracle = exact.fold_to_orthant(exact.enumerate_oracle(q, (1, 0), 6))
        err = max(abs(fast.get(k, 0.0) - float(oracle.get(k, 0))) for k in set(fast) | set(oracle))
        if err > 1e-12:
            problems.append(f"propagate differs from the oracle by {err:.3e}")
        return problems

    return check


def _check_profile(n: int):
    def check(profile: list) -> list[str]:
        probs = [q for _, q in profile]
        if len(profile) != n // 2 + 1 or profile[0] != (0, 1.0):
            return ["return profile has the wrong horizons"]
        if min(probs) < 0.0 or max(probs) > 1.0:
            return ["return probability outside [0, 1]"]
        return []

    return check


def _check_mgf(p: ModelParams, n: int, s):
    def check(value: float) -> list[str]:
        gap = value / n - ldp.log_psi(p, s)
        if not abs(gap) <= _mgf_tolerance(n):
            return [f"log_mgf gap {gap!r} at n={n}, s={s}"]
        return []

    return check


def _check_consistency(ns):
    def check(rows: list) -> list[str]:
        if [r.n for r in rows] != sorted(ns):
            return ["consistency rows do not match the horizons"]
        for r in rows:
            if not (0.0 < r.tail_prob <= 1.0 and r.limit_rate > 0.0
                    and abs(r.gap) <= _mgf_tolerance(r.n)):
                return [f"consistency row {r} out of range"]
        return []

    return check


def _check_domination(report) -> list[str]:
    if report.mode == "upper" and not report.max_violation <= 1e-12:
        return [f"upper domination violated by {report.max_violation!r} at n={report.n}"]
    if report.mode == "lower" and not report.min_slack >= -1e-12:
        return [f"lower domination slack {report.min_slack!r} at n={report.n}"]
    return []


def _cell_steps(name: str, p: ModelParams, n: int) -> int:
    cells, steps = sweep_size(name, p.dim, None, n)
    return cells * steps


MGF_TILTS = ((-0.5, 0.5), (0.25, 0.25), (0.5, -0.25), (1.0, 0.5))


def build_exact_horizons(rng: np.random.Generator, r: int, ctx: Context) -> list[Op]:
    n3, n_ret, horizons, n_dom = (
        (8, 20, (10, 20, 30), 4) if ctx.tiny else (100, 300, (100, 200, 300), 16)
    )
    ns = tuple(h // 2 for h in horizons)
    p3 = ModelParams(3, float(rng.uniform(0.4, 0.6)))
    p2 = ModelParams(2, float(rng.uniform(0.4, 0.6)))
    ops = [
        Op("propagate d=3", lambda: exact.propagate(p3, (0, 0, 0), n3),
           _cell_steps("propagate", p3, n3), _check_law(p3, n3)),
        Op("return_probability_profile d=2",
           lambda: exact.return_probability_profile(p2, n_ret),
           _cell_steps("return_probability_profile", p2, n_ret), _check_profile(n_ret)),
    ]
    # Many tilts and horizons of one (lam, start): one sweep could serve all.
    pm = ModelParams(2, float(rng.uniform(0.4, 0.6)))
    for base in MGF_TILTS:
        s = tuple(float(c) for c in np.asarray(base) + rng.uniform(-0.05, 0.05, 2))
        for n in horizons:
            ops.append(Op("log_mgf d=2", lambda n=n, s=s: exact.log_mgf(pm, (0, 0), n, s),
                          _cell_steps("log_mgf", pm, n), _check_mgf(pm, n, s)))
    a = float(rng.uniform(0.35, 0.45))
    ops.append(Op("ldp_consistency d=2", lambda: ldp.ldp_consistency(p2, a, ns),
                  sum(_cell_steps("propagate", p2, n) for n in ns), _check_consistency(ns)))
    pd = ModelParams(2, float(rng.uniform(0.4, 0.6)))
    for n in range(1, n_dom + 1):
        work = 2 * _cell_steps("propagate_full", pd, n)
        ops.append(Op("check_domination_upper d=2",
                      lambda n=n: exact.check_domination_upper(pd, n), work, _check_domination))
        ops.append(Op("check_domination_lower d=2",
                      lambda n=n: exact.check_domination_lower(pd, (1, 1), n), work,
                      _check_domination))
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run the command line in process; returns (exit status, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@dataclass(frozen=True)
class _Invocation:
    key: str
    argv: list[str]
    rows: Callable[[dict], int]   # data rows the artifact holds, from its JSON
    expected: int | None          # rows the inputs ask for, when they fix it
    points: int = 0


def _rows(payload: dict) -> int:
    return len(payload["rows"])


def _simulate_rows(payload: dict) -> int:
    if "trajectories" in payload:
        return sum(len(t) for t in payload["trajectories"])
    d = len(payload["mean_endpoint"])
    return 2 * d + d * d + len(payload["boundary_visits"])


def _invocations(rng: np.random.Generator, r: int, ctx: Context) -> list[_Invocation]:
    tiny = ctx.tiny
    g2, g3 = (3, 2) if tiny else (13, 6)
    n_mgf = (4, 8) if tiny else (20, 40, 80)
    n_ret, n_dom = (10, 3) if tiny else (100, 10)
    sim = (20, 10) if tiny else (100, 100)
    dump = (10, 2) if tiny else (300, 30)

    def model(command: str, dim: int) -> list[str]:
        return [command, "--dim", str(dim), "--lambda", repr(float(rng.uniform(0.4, 0.6)))]

    def walks(command: str, steps: int, paths: int) -> list[str]:
        return [*model(command, 2), "--seed", str(_seed(rng)),
                "--steps", str(steps), "--paths", str(paths)]

    def floats(values) -> str:
        return ",".join(repr(float(c)) for c in values)

    # a path with interior slopes, so each segment is one finite rate query
    segments = 4
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, segments - 1)), [1.0]])
    slopes = rng.uniform(0.05, 0.3, (segments, 2))
    values = np.vstack([[0.0, 0.0], np.cumsum(slopes * np.diff(times)[:, None], axis=0)])
    path_file = ctx.tmp / "path.json"
    path_file.write_text(json.dumps(
        [{"t": float(t), "phi": [float(c) for c in v]} for t, v in zip(times, values)]
    ))
    alpha, gap = int(rng.integers(-10, 10)), 2 * int(rng.integers(0, 10))
    # ballot counts are cached by n, so every round asks for a new n
    n_ballot = (20 if tiny else 300) + 2 * (r + 1)
    n_list = ",".join(map(str, n_mgf))

    def one(payload: dict) -> int:
        return 1

    return [
        _Invocation("rate-grid-2", [*model("rate-fn", 2), "--grid", str(g2)],
                    _rows, g2**2, g2**2),
        _Invocation("rate-grid-3", [*model("rate-fn", 3), "--grid", str(g3)],
                    _rows, g3**3, g3**3),
        _Invocation("rate-x", [*model("rate-fn", 2), "--x", floats(rng.uniform(0.05, 0.4, 2))],
                    one, 1, 1),
        _Invocation("path-rate", [*model("path-rate", 2), "--path", str(path_file)],
                    lambda payload: len(payload["segments"]), segments, segments),
        _Invocation("matrix-check", model("matrix-check", 3), one, 1),
        _Invocation("ballot", [*model("ballot", 1), "--n", str(n_ballot),
                               f"--alpha={alpha}", f"--beta={alpha + gap}"], one, 1),
        _Invocation("mgf", [*model("mgf", 2), "--s=" + floats(rng.uniform(-0.5, 1.0, 2)),
                            "--n-list", n_list], _rows, len(n_mgf)),
        _Invocation("return-prob", [*model("return-prob", 2), "--n-max", str(n_ret)],
                    _rows, n_ret // 2 + 1),
        _Invocation("dominate-upper", [*model("dominate", 2), "--mode", "upper",
                                       "--n-max", str(n_dom)], _rows, n_dom),
        _Invocation("dominate-lower", [*model("dominate", 2), "--mode", "lower",
                                       "--n-max", str(n_dom)], _rows, n_dom),
        _Invocation("ldp-consistency", [*model("ldp-consistency", 2),
                                        "--a", repr(float(rng.uniform(0.35, 0.45))),
                                        "--n-list", n_list], _rows, len(n_mgf)),
        _Invocation("simulate", walks("simulate", *sim), _simulate_rows, None),
        _Invocation("simulate-dump", [*walks("simulate", *dump), "--dump-trajectories"],
                    _simulate_rows, dump[1] * (dump[0] + 1)),
        _Invocation("speed", walks("speed", *sim), lambda p: len(p["limit"]), 2),
        _Invocation("martingale", walks("martingale", *sim), lambda p: len(p["mean"]), 2),
        _Invocation("boundary", walks("boundary", *sim), lambda p: len(p["histogram"]), None),
    ]


def _csv_data_rows(text: str) -> int:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return len(lines) - 1  # header


def _check_invocation(spec: _Invocation, fmt: str, argv: list[str], out: Path):
    def check(result: tuple[int, str]) -> list[str]:
        code, err = result
        if code != 0:
            return [f"{spec.key} --format {fmt} exited {code}: {err.strip()}"]
        problems = []
        text = out.read_text()
        try:
            # the JSON artifact of the same configuration fixes the CSV rows
            payload = json.loads(out.with_suffix(".json").read_text())
        except (OSError, ValueError) as exc:
            return [f"{spec.key}: JSON artifact does not parse: {exc}"]
        rows = spec.rows(payload)
        if spec.expected is not None and rows != spec.expected:
            problems.append(f"{spec.key}: {rows} rows, expected {spec.expected}")
        if fmt == "csv" and _csv_data_rows(text) != rows:
            problems.append(f"{spec.key}: CSV has {_csv_data_rows(text)} rows, JSON {rows}")
        repeat = out.with_name(out.stem + "-repeat" + out.suffix)
        code, err = invoke([*argv[:-1], str(repeat)])
        if code != 0 or repeat.read_bytes() != out.read_bytes():
            problems.append(f"{spec.key} --format {fmt}: repeat is not byte-identical")
        return problems

    return check


def build_cli_report(rng: np.random.Generator, r: int, ctx: Context) -> list[Op]:
    ops = []
    for spec in _invocations(rng, r, ctx):
        for fmt in ("json", "csv"):  # JSON first: its artifact checks the CSV
            out = ctx.tmp / f"{spec.key}.{fmt}"
            argv = [*spec.argv, "--format", fmt, "--out", str(out)]
            ops.append(Op(f"cli {spec.key} {fmt}", lambda argv=argv: invoke(argv), 1.0,
                          _check_invocation(spec, fmt, argv, out), spec.points, out))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_transient", "simulate", "path-steps", build_mc_transient, check_canary),
        Workload("mc_boundary", "simulate", "path-steps", build_mc_boundary, check_canary),
        Workload("exact_horizons", "exact", "cell-steps", build_exact_horizons),
        Workload("cli_report", "cli", "artifacts", build_cli_report),
    )
}
