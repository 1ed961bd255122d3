"""Large-deviation layer: limiting log-mgf, its convex conjugate, and the
matrix identity behind the Gaussian scaling limit.

The per-step moment generating behaviour of the reflected chain has the
dimension-free limit Lambda(s) = ln psi(s) with

    psi(s) = N(s) * rho / d
           + (1/(d*(1+lam))) * sum_{s_i >= s0} (lam * exp(-s_i) + exp(s_i)),

where s0 = (1/2) ln(lam), rho = 2*sqrt(lam)/(1+lam) and N(s) counts the
coordinates below the kink s0.  Coordinates below the kink are flattened:
psi(s) = psi(max(s, s0)) componentwise, so the Fenchel-Legendre transform

    rate(x) = sup_s { <s, x> - ln psi(s) }

may be computed over the closed orthant {s : s_i >= s0}, where psi is
smooth, log-convex and increasing in every coordinate.  On that orthant
the supremum is a concave maximization solved here by a projected Newton
iteration (bisection in one dimension); a coordinate i with x_i = 0 pins
s_i = s0 because the partial derivative of the objective there is exactly
x_i.

The transform is finite on {x >= 0, sum(x) <= 1} for lam > 0 and on the
probability simplex {x >= 0, sum(x) = 1} for lam = 0.  On the face
sum(x) = 1 the supremum is approached only as s -> +infinity along the
diagonal, with the closed limit

    rate(x) = (1/2) ln(lam) - ln(rho) + ln(2d) + sum_{x_i > 0} x_i ln(x_i),

which specializes to ln(1 + lam) at the one-dimensional endpoint x = 1.

Closed forms are provided for d = 1, d = 2 (lam in (0,1)) and for lam = 0
in any dimension; everywhere else the numerical transform is the source
of truth.  The module also builds the limiting covariance Sigma of the
centred, sqrt(n)-scaled chain together with the symmetric square root
M = (1/sqrt(d)) * (I - ((1-rho)/d) * E), and evaluates the action of a
piecewise linear scaled trajectory as the time integral of the rate of
its slopes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp, xlogy

from . import exact
from .errors import ConvergenceError
from .kernel import ModelParams

# Stationarity tolerance and iteration budgets of the conjugate solver.
KKT_TOL = 1e-10
MAX_ITERATIONS = 100
MAX_BACKTRACKS = 40

# Coordinates within this distance of 0, and totals within this distance
# of 1, are snapped onto the respective face before classification.
SIMPLEX_TOL = 1e-12


def _coerce_point(p: ModelParams, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (p.dim,):
        raise ValueError(f"x must have {p.dim} coordinates, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x.tolist()}")
    return x


def log_psi(p: ModelParams, s) -> float:
    """ln psi(s), evaluated in log space so large tilts cannot overflow."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (p.dim,):
        raise ValueError(f"s must have {p.dim} coordinates, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"s must be finite, got {s.tolist()}")
    d = p.dim
    log_lam = math.log(p.lam) if p.lam > 0 else -math.inf
    norm = math.log(d * (1.0 + p.lam))
    # Per-coordinate summand of psi, in logs.  Below the kink the summand
    # is the constant rho/d; at s_i = s0 both branches agree (= rho/d).
    with np.errstate(over="ignore"):  # logaddexp's x - y, not its value
        smooth = np.logaddexp(log_lam - s, s) - norm
    if p.lam > 0:
        flat = math.log(p.rho / d)
        terms = np.where(s < p.s0, flat, smooth)
    else:
        terms = smooth
    return float(logsumexp(terms))


def psi(p: ModelParams, s) -> float:
    """The limiting per-step moment generating factor psi(s)."""
    return math.exp(log_psi(p, s))


def sigma_matrix(p: ModelParams) -> np.ndarray:
    """Limiting covariance Sigma of (|X_n| - n*v)/sqrt(n): (1/d) on the
    diagonal minus the rank-one correction v_1^2 everywhere."""
    d = p.dim
    c = (1.0 - p.lam) / (d * (1.0 + p.lam))
    return np.eye(d) / d - c * c * np.ones((d, d))


def scaling_matrix(p: ModelParams) -> np.ndarray:
    """Symmetric factor M = (1/sqrt(d)) * (I - ((1-rho)/d) * E) with
    M M^T = Sigma."""
    d = p.dim
    return (np.eye(d) - (1.0 - p.rho) / d * np.ones((d, d))) / math.sqrt(d)


def clt_matrix_check(p: ModelParams) -> float:
    """max |(M M^T - Sigma)_ij|; zero up to rounding for every (d, lam)."""
    m = scaling_matrix(p)
    return float(np.max(np.abs(m @ m.T - sigma_matrix(p))))


@dataclass(frozen=True)
class RateResult:
    """Outcome of one conjugate evaluation rate(x) = sup_s <s,x> - ln psi(s).

    Attributes:
        value: the rate in [0, +inf]; +inf exactly when x lies outside the
            effective domain.
        argmax_s: maximizing tilt when one exists at finite s, else None.
        at_infinity: True when the supremum is approached only along a
            diverging sequence of tilts (the face sum(x) = 1, and the
            lam = 0 case with a vanishing coordinate).
        domain_class: 'interior', 'coordinate_boundary' (some x_i = 0,
            total below 1), 'simplex_boundary' (sum(x) = 1, which for
            lam = 0 is the whole effective domain), or 'outside'.
        iterations: optimizer steps consumed (0 when a closed form or a
            pinned-only configuration decides the value).
        kkt_residual: max norm of the stationarity residual at argmax_s;
            NaN when there is no finite maximizer.
    """

    value: float
    argmax_s: tuple[float, ...] | None
    at_infinity: bool
    domain_class: str
    iterations: int
    kkt_residual: float


def _classify(p: ModelParams, x: np.ndarray) -> str:
    if np.any(x < 0.0):
        return "outside"
    total = float(x.sum())
    if p.lam == 0.0:
        return "simplex_boundary" if abs(total - 1.0) <= SIMPLEX_TOL else "outside"
    if total > 1.0 + SIMPLEX_TOL:
        return "outside"
    if abs(total - 1.0) <= SIMPLEX_TOL:
        return "simplex_boundary"
    if np.any(x == 0.0):
        return "coordinate_boundary"
    return "interior"


def _simplex_face_value(p: ModelParams, x: np.ndarray) -> float:
    # Limit of <s,x> - ln psi(s) as s -> +infinity along the diagonal,
    # restricted to the face sum(x) = 1.
    entropy = float(np.sum(xlogy(x, np.where(x > 0.0, x, 1.0))))
    return 0.5 * math.log(p.lam) - math.log(p.rho) + math.log(2 * p.dim) + entropy


def _rate_lam0(p: ModelParams, x: np.ndarray) -> RateResult:
    # psi(s) = (1/d) sum exp(s_i): the conjugate is ln d + sum x_i ln x_i
    # on the simplex.  With every x_i > 0 the tilt s_i = ln(d * x_i) is a
    # finite maximizer; a zero coordinate pushes its tilt to -infinity.
    d = p.dim
    value = max(0.0, math.log(d) + float(np.sum(xlogy(x, np.where(x > 0.0, x, 1.0)))))
    if np.all(x > 0.0):
        s_star = np.log(d * x)
        grad = x - np.exp(s_star - log_psi(p, s_star)) / d
        return RateResult(
            value=value,
            argmax_s=tuple(float(c) for c in s_star),
            at_infinity=False,
            domain_class="simplex_boundary",
            iterations=0,
            kkt_residual=float(np.max(np.abs(grad))),
        )
    return RateResult(
        value=value,
        argmax_s=None,
        at_infinity=True,
        domain_class="simplex_boundary",
        iterations=0,
        kkt_residual=math.nan,
    )


def _solve_bisection(p: ModelParams, x: float) -> tuple[float, int]:
    # Scalar stationarity x = h'(s)/h(s) with h(s) = lam*exp(-s) + exp(s);
    # the ratio increases from 0 at s0 to 1, so the residual brackets a
    # unique root for x in (0, 1).
    lam = p.lam

    def residual(s: float) -> float:
        up, down = math.exp(s), lam * math.exp(-s)
        return x - (up - down) / (up + down)

    lo, hi, steps = p.s0, p.s0 + 1.0, 0
    while residual(hi) > 0.0:
        lo, hi = hi, hi + 2.0 * (hi - p.s0)
        steps += 1
        if steps > MAX_ITERATIONS:
            raise ConvergenceError("bisection bracket search exhausted its budget")
    mid = 0.5 * (lo + hi)
    for used in range(1, MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= KKT_TOL:
            return mid, used
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection stalled at residual {residual(mid):.3e} > {KKT_TOL:.1e}"
    )


def _solve_newton(
    p: ModelParams, x: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, int]:
    # Maximize g(t) = <x_free, t> - ln H(t) over t >= s0, where H is the
    # sum of the smooth per-coordinate terms h(t_j) plus the constant
    # contribution rho/d of every pinned coordinate.  h'' = h, so the
    # Hessian of -g is diag(h_j/H) - q q^T with q_j = h'(t_j)/H, positive
    # definite whenever lam > 0.
    lam, d = p.lam, p.dim
    norm = d * (1.0 + lam)
    base = (d - int(free.sum())) * p.rho / d
    xf = x[free]

    def parts(t: np.ndarray):
        with np.errstate(over="ignore"):
            up = np.exp(t) / norm
            down = lam * np.exp(-t) / norm
            big_h = base + float(np.sum(up + down))
        return up, down, big_h

    def objective(t: np.ndarray) -> float:
        _, _, big_h = parts(t)
        return float(xf @ t) - math.log(big_h)

    t = np.zeros(xf.size)
    for used in range(1, MAX_ITERATIONS + 1):
        up, down, big_h = parts(t)
        grad = xf - (up - down) / big_h
        if float(np.max(np.abs(grad))) <= KKT_TOL:
            return t, used - 1
        q = (up - down) / big_h
        hess = np.diag((up + down) / big_h) - np.outer(q, q)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            # with lam below the rounding resolution of h the Hessian can
            # be exactly singular
            raise ConvergenceError(
                "projected Newton met a singular Hessian: lam is too small "
                "for the curvature to be resolved"
            ) from None
        g0 = objective(t)
        predicted = float(grad @ step)
        # Inside the quadratic-convergence phase the per-step gain drops
        # below the rounding resolution of the objective, so a sufficient
        # increase can no longer be measured; the raw (projected) Newton
        # step is safe there.
        if predicted <= 1e-13 * (1.0 + abs(g0)) and float(np.max(np.abs(step))) <= 1.0:
            t = np.maximum(t + step, p.s0)
            continue
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            cand = np.maximum(t + alpha * step, p.s0)
            gain = float(grad @ (cand - t))
            if objective(cand) >= g0 + 1e-4 * gain:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search exhausted its backtracking budget")
        t = cand
    raise ConvergenceError(
        f"projected Newton stalled above the {KKT_TOL:.1e} stationarity tolerance"
    )


def rate_function(p: ModelParams, x) -> RateResult:
    """Fenchel-Legendre transform sup_s { <s, x> - ln psi(s) } at x.

    Finite exactly on {x >= 0, sum(x) <= 1} (lam > 0) or the probability
    simplex (lam = 0).  The pair d = 1, lam = 0 is rejected: that walk is
    deterministic and has no rate function.
    """
    if p.dim == 1 and p.lam == 0.0:
        raise ValueError("rate function undefined for dim=1, lam=0")
    x = _coerce_point(p, x).copy()
    x[np.abs(x) <= SIMPLEX_TOL] = 0.0
    domain_class = _classify(p, x)
    if domain_class == "outside":
        return RateResult(
            value=math.inf,
            argmax_s=None,
            at_infinity=False,
            domain_class="outside",
            iterations=0,
            kkt_residual=math.nan,
        )
    if p.lam == 0.0:
        return _rate_lam0(p, x)
    if domain_class == "simplex_boundary":
        return RateResult(
            value=max(0.0, _simplex_face_value(p, x)),
            argmax_s=None,
            at_infinity=True,
            domain_class="simplex_boundary",
            iterations=0,
            kkt_residual=math.nan,
        )

    # Interior of the domain in the total-mass direction: the maximizer is
    # finite, with s_i pinned at the kink exactly on {i : x_i = 0}.
    free = x > 0.0
    s_star = np.full(p.dim, p.s0)
    iterations = 0
    if free.any():
        if p.dim == 1:
            root, iterations = _solve_bisection(p, float(x[0]))
            s_star[0] = root
        else:
            t, iterations = _solve_newton(p, x, free)
            s_star[free] = t
    log_h = log_psi(p, s_star)
    value = float(x @ s_star) - log_h
    # Stationarity residual; pinned coordinates contribute exactly
    # x_i = 0 because h'(s0) = 0.
    norm = p.dim * (1.0 + p.lam)
    up = np.exp(s_star) / norm
    down = p.lam * np.exp(-s_star) / norm
    grad = x - (up - down) / math.exp(log_h)
    return RateResult(
        value=max(0.0, value),
        argmax_s=tuple(float(c) for c in s_star),
        at_infinity=False,
        domain_class=domain_class,
        iterations=iterations,
        kkt_residual=float(np.max(np.abs(grad))),
    )


def rate_closed_form(p: ModelParams, x) -> float:
    """Explicit rate formulas: d = 1 and d = 2 for lam in (0, 1), and the
    entropy form ln d + sum x_i ln x_i for lam = 0 in dimension >= 2.

    Raises ValueError outside each formula's stated range; the d = 2
    expression is evaluated on the open region sum(x) < 1 where its
    radical is positive.
    """
    x = _coerce_point(p, x)
    if p.lam == 0.0:
        if p.dim < 2:
            raise ValueError("no closed form for dim=1, lam=0")
        if np.any(x < 0.0) or abs(float(x.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError("lam=0 closed form needs x on the probability simplex")
        return math.log(p.dim) + float(np.sum(xlogy(x, np.where(x > 0.0, x, 1.0))))
    if p.dim == 1:
        v = float(x[0])
        if not 0.0 <= v <= 1.0:
            raise ValueError("d=1 closed form needs x in [0, 1]")
        return (
            0.5 * v * math.log(p.lam)
            - math.log(p.rho)
            + float(xlogy(0.5 * (1.0 + v), 1.0 + v))
            + float(xlogy(0.5 * (1.0 - v), 1.0 - v))
        )
    if p.dim == 2:
        if np.any(x < 0.0) or float(x.sum()) >= 1.0:
            raise ValueError("d=2 closed form needs x >= 0 with sum(x) < 1")
        x1, x2 = float(x[0]), float(x[1])
        a = x1 * x1 - x2 * x2
        # den^2 factors as (1 - (x1+x2)^2)(1 - (x1-x2)^2) > 0 on the
        # open domain.
        den = math.sqrt(a * a + 1.0 - 2.0 * (x1 * x1 + x2 * x2))
        bar = (
            float(xlogy(x1, (1.0 + a + 2.0 * x1) / den))
            + float(xlogy(x2, (1.0 - a + 2.0 * x2) / den))
            + math.log(den)
        )
        return 0.5 * (x1 + x2) * math.log(p.lam) - math.log(p.rho) + bar
    raise ValueError(f"no closed form for dim={p.dim} with lam={p.lam}")


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Scaled trajectory skeleton: breakpoints 0 = t_0 < ... < t_K = 1 with
    nonnegative values and phi(0) = 0.

    Membership in the finite-action class (slopes inside the effective
    domain, which forces sum_i |slope_i| <= 1) is not a construction
    requirement; paths that leave it simply get an infinite action.
    """

    times: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        values = tuple(tuple(float(c) for c in row) for row in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) < 2 or len(times) != len(values):
            raise ValueError("need matching times and values with at least 2 rows")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("breakpoints must run from t=0 to t=1")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        dims = {len(row) for row in values}
        if len(dims) != 1:
            raise ValueError("all values must share one dimension")
        if any(c != 0.0 for c in values[0]):
            raise ValueError("paths must start at the origin")
        if any(c < 0.0 for row in values for c in row):
            raise ValueError("path values must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def durations(self) -> np.ndarray:
        return np.diff(np.asarray(self.times))

    def slopes(self) -> np.ndarray:
        vals = np.asarray(self.values)
        return np.diff(vals, axis=0) / self.durations()[:, None]


def path_from_json(source) -> PiecewiseLinearPath:
    """Build a path from a JSON array of {"t": ..., "phi": [...]} rows (or
    from the already-parsed list of dicts)."""
    rows = json.loads(source) if isinstance(source, (str, bytes)) else source
    try:
        times = tuple(row["t"] for row in rows)
        values = tuple(tuple(row["phi"]) for row in rows)
    except (TypeError, KeyError) as err:
        raise ValueError("each breakpoint needs keys 't' and 'phi'") from err
    return PiecewiseLinearPath(times=times, values=values)


def path_rate_functional(p: ModelParams, path: PiecewiseLinearPath) -> float:
    """Action of a piecewise linear path: sum_k (t_{k+1} - t_k) * rate(slope_k),
    +inf as soon as one slope leaves the effective domain."""
    if path.dim != p.dim:
        raise ValueError(f"path has dimension {path.dim}, model has {p.dim}")
    return _action(path, (rate_function(p, slope).value for slope in path.slopes()))


def _action(path: PiecewiseLinearPath, rates) -> float:
    """sum_k (t_{k+1} - t_k) * rates[k], +inf at the first infinite rate
    (later rates are not drawn from the iterable)."""
    total = 0.0
    for dt, piece in zip(path.durations(), rates):
        if math.isinf(piece):
            return math.inf
        total += float(dt) * piece
    return total


@dataclass(frozen=True)
class ConsistencyRow:
    """One horizon of the tail-decay comparison: the exact tail probability
    of {|X_n^1| >= a*n}, its empirical rate -(1/n) ln p, the limiting rate
    inf over {x_1 >= a}, and their gap."""

    n: int
    tail_prob: float
    empirical_rate: float
    limit_rate: float
    gap: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "tail_prob": self.tail_prob,
            "empirical_rate": self.empirical_rate,
            "limit_rate": self.limit_rate,
            "gap": self.gap,
        }


def _halfspace_infimum(p: ModelParams, a: float) -> float:
    # inf of the rate over the closed set {x : x_1 >= a}.  Below the speed
    # the infimum is 0 at x = v; above it convexity puts the minimizer on
    # the face x_1 = a.
    v1 = float(p.speed[0])
    if a <= v1 + 1e-15:
        return 0.0
    if p.dim == 1:
        return rate_function(p, [a]).value
    width = 1.0 - a

    def on_face(x2: float) -> float:
        return rate_function(p, [a, x2]).value

    best = min(on_face(0.0), on_face(width) if width > 0.0 else math.inf)
    if width > 0.0:
        res = minimize_scalar(
            on_face, bounds=(0.0, width), method="bounded",
            options={"xatol": 1e-10},
        )
        best = min(best, float(res.fun))
    return best


def ldp_consistency(
    p: ModelParams,
    a: float,
    n_values,
    *,
    max_cells: int = exact.DEFAULT_MAX_CELLS,
) -> list[ConsistencyRow]:
    """Exact finite-n tail rates against the limiting rate, one row per
    horizon.

    For each n the tail probability P(|X_n^1| >= a*n) comes from the exact
    law of the reflected chain started at the origin, read off one sweep to
    the largest horizon; the integer cutoff is ceil(a*n) with a tiny guard
    so that thresholds that are exact integers in real arithmetic are not
    pushed up by float noise.
    """
    if p.dim not in (1, 2):
        raise ValueError("consistency tables are limited to dim 1 and 2")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"threshold a must lie in [0, 1], got {a!r}")
    horizons = sorted(int(n) for n in n_values)
    if horizons and horizons[0] < 1:
        raise ValueError("horizons must be positive")
    limit = _halfspace_infimum(p, a)
    tails: dict[int, float] = {}

    def snap(k: int, grid: np.ndarray, lo) -> None:
        # the support of a sweep from the origin starts at the origin
        if k in horizons:
            tails[k] = math.fsum(grid[math.ceil(a * k - 1e-9):].flat)

    exact._reflected(p, (0,) * p.dim, max(horizons, default=0), max_cells, snapshot=snap)
    rows = []
    for n in horizons:
        tail = tails[n]
        rate = math.inf if tail == 0.0 else -math.log(tail) / n
        rows.append(
            ConsistencyRow(
                n=n,
                tail_prob=tail,
                empirical_rate=rate,
                limit_rate=limit,
                gap=rate - limit,
            )
        )
    return rows
