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
smooth, log-convex and increasing in every coordinate.  Writing
s_i = s0 + t_i there gives psi(s) = (rho/d) * sum_i cosh(t_i), and the
stationarity x_i = sinh(t_i) / sum_j cosh(t_j) reduces, with
u = 1 / sum_j cosh(t_j), to one lam-free scalar equation

    sum_i r_i = 1,    r_i = sqrt(x_i^2 + u^2),

whose left side is convex and increasing in u; Newton's method from u = 1
falls monotonically onto its root.  rate_functions solves that root for
a whole array of points at once, each row under its own stop rule, and
returns one list per RateResult field; rate_function is its one-row
case.  The maximizer is s_i = s0 + ln((x_i + r_i)/u), so a coordinate
with x_i = 0 sits at the kink s0, and

    rate(x) = (|x|/2) ln(lam) - ln(rho) + ln(d) + (1 - |x|) ln(u)
              + sum_i x_i ln(x_i + r_i),        |x| = sum_i x_i.

The transform is finite on {x >= 0, sum(x) <= 1} for lam > 0 and on the
probability simplex {x >= 0, sum(x) = 1} for lam = 0.  On the face
sum(x) = 1 the supremum is approached only as s -> +infinity along the
diagonal; its value is the same expression at u = 0, which specializes to
ln(1 + lam) at the one-dimensional endpoint x = 1.

Closed forms are provided for d = 1, d = 2 (lam in (0,1)) and for lam = 0
in any dimension; everywhere else the numerical transform is the source
of truth.  The module also builds the limiting covariance Sigma of the
centred, sqrt(n)-scaled chain together with the symmetric square root
M = (1/sqrt(d)) * (I - ((1-rho)/d) * E), and evaluates the action of a
piecewise linear scaled trajectory as the time integral of the rate of
its slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import ConvergenceError
from .kernel import ModelParams, _finite_rows, _integer, _real

# Newton steps allowed on the scalar root of the conjugate.
MAX_ITERATIONS = 100

# Coordinates within this distance of 0 are snapped onto their face before
# classification; a point whose total is within it of 1 is then rescaled
# onto the face sum(x) = 1.
SIMPLEX_TOL = 1e-12


def log_psi(p: ModelParams, s) -> float:
    """ln psi(s), evaluated in log space so large tilts cannot overflow."""
    return float(_log_psi_rows(p, _finite_rows("s", [s], p.dim)[0]))


def _log_psi_rows(p: ModelParams, s: np.ndarray) -> np.ndarray:
    """ln psi of each row of finite tilts s (an array whose last axis has
    dim entries)."""
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
    return exact._logsumexp(terms)


def _xlogy_one(x: float, y: float) -> float:
    # NaN first: an ordered comparison with NaN raises the invalid flag
    if math.isnan(y):
        return math.nan
    if x == 0.0:
        return 0.0
    return x * (math.log(y) if y > 0.0 else -math.inf if y == 0.0 else math.nan)


_xlogy_loop = np.frompyfunc(_xlogy_one, 2, 1)


def _xlogy(x, y):
    """x ln y, and 0 where x == 0 and y is not NaN, elementwise over
    broadcast scalars or arrays.  The log is libm's (math.log): np.log
    differs from it in the last bit on some inputs and CPUs, and the rate
    artifacts were recorded with libm's."""
    return np.asarray(_xlogy_loop(x, y), dtype=float)[()]


def psi(p: ModelParams, s) -> float:
    """The limiting per-step moment generating factor psi(s)."""
    return math.exp(log_psi(p, s))


def sigma_matrix(p: ModelParams) -> np.ndarray:
    """Limiting covariance Sigma of (|X_n| - n*v)/sqrt(n): -v_1^2 off the
    diagonal and 1/d - v_1^2 on it, formed as (d-1)/d^2 + 4 lam/(d(1+lam))^2
    so that it does not cancel at small lam."""
    d, c = p.dim, float(p.speed[0])
    diagonal = (d - 1) / d**2 + 4 * p.lam / (d * (1 + p.lam)) ** 2
    return np.where(np.eye(d, dtype=bool), diagonal, -c * c)


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
        iterations: Newton steps taken on the scalar root u (0 on the face
            sum(x) = 1, at lam = 0 and outside the domain).
        kkt_residual: max norm of the stationarity residual at argmax_s;
            NaN when there is no finite maximizer.
    """

    value: float
    argmax_s: tuple[float, ...] | None
    at_infinity: bool
    domain_class: str
    iterations: int
    kkt_residual: float


def _classify(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Domain class of each row of snapped points x (an array whose last
    axis has dim entries)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum(axis=-1)      # +inf beyond double range: outside
    face = np.abs(total - 1.0) <= SIMPLEX_TOL
    beyond = ~face if p.lam == 0.0 else total > 1.0 + SIMPLEX_TOL
    below = np.where((x == 0.0).any(-1), "coordinate_boundary", "interior")
    return np.where((x < 0.0).any(-1) | beyond, "outside",
                    np.where(face, "simplex_boundary", below))


def _dual_roots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Root u of f(u) = sum_i sqrt(x_i^2 + u^2) - 1 for each row of x, where
    # 0 <= x and sum(x) < 1.  f is convex and increasing with f(1) >= 0, so
    # Newton steps from u = 1 decrease monotonically onto the root; a row
    # stops at its first step that no longer decreases u, the rounding floor.
    u, steps = np.ones(len(x)), np.zeros(len(x), dtype=int)
    for _ in range(MAX_ITERATIONS + 1):
        r = np.hypot(x, u[:, None])
        nxt = u - (r.sum(1) - 1.0) / (u * (1.0 / r).sum(1))
        going = nxt < u
        if not going.any():
            return u, steps
        u, steps = np.where(going, nxt, u), steps + going
    raise ConvergenceError(
        f"Newton on the dual root did not settle within {MAX_ITERATIONS} steps"
    )


def rate_function(p: ModelParams, x) -> RateResult:
    """Fenchel-Legendre transform sup_s { <s, x> - ln psi(s) } at x.

    Finite exactly on {x >= 0, sum(x) <= 1} (lam > 0) or the probability
    simplex (lam = 0).  The pair d = 1, lam = 0 is rejected: that walk is
    deterministic and has no rate function.
    """
    value, s, *rest = (column[0] for column in rate_functions(p, [x]).values())
    return RateResult(value, None if s is None else tuple(s), *rest)


def rate_functions(p: ModelParams, points) -> dict[str, list]:
    """rate_function at each of k points, with the scalar roots of all rows
    solved at once: a (k, d) array, or for d = 1 a flat list of k numbers.
    Returns a dict of plain lists, one per RateResult field in field order,
    whose item i is rate_function's at point i, bit for bit (argmax_s a list)."""
    if p.dim == 1 and p.lam == 0.0:
        raise ValueError("rate function undefined for dim=1, lam=0")
    x = _finite_rows("x", points, p.dim)
    x[np.abs(x) <= SIMPLEX_TOL] = 0.0
    classes = _classify(p, x)
    k, d = x.shape
    face, inside = classes == "simplex_boundary", classes != "outside"
    x[face] /= x[face].sum(axis=1, keepdims=True)
    value, kkt = np.full(k, math.inf), np.full(k, math.nan)
    s_star, iterations = np.zeros((k, d)), np.zeros(k, dtype=int)
    if p.lam == 0.0:
        # psi(s) = (1/d) sum exp(s_i): the conjugate is ln d + sum x_i ln x_i
        # on the simplex.  With every x_i > 0 the tilt s_i = ln(d * x_i) is
        # a finite maximizer; a zero coordinate pushes its tilt to -infinity.
        found = face & (x > 0.0).all(axis=1)
        value[face] = math.log(d) + _xlogy(x[face], x[face]).sum(axis=1)
        xf = x[found]
        s = s_star[found] = np.log(d * xf)
        grad = xf - np.exp(s - _log_psi_rows(p, s)[:, None]) / d
        kkt[found] = np.abs(grad).max(axis=1)
    else:
        # The face is the same expression at u = 0 and |x| = 1, where the
        # term (1 - |x|) ln u vanishes and the maximizer diverges.
        found = inside & ~face
        u = np.zeros(k)
        xf = x[found]
        uf, iterations[found] = _dual_roots(xf)
        u[found] = uf
        s = s_star[found] = p.s0 + np.log((xf + np.hypot(xf, uf[:, None])) / uf[:, None])
        # Stationarity residual at the maximizer; a coordinate at the
        # kink contributes exactly x_i = 0 because h'(s0) = 0.  The
        # divisor is libm's exp of each row's ln psi.
        norm = d * (1.0 + p.lam)
        up = np.exp(s) / norm
        down = p.lam * np.exp(-s) / norm
        psi_s = np.array([math.exp(v) for v in _log_psi_rows(p, s).tolist()])
        kkt[found] = np.abs(xf - (up - down) / psi_s[:, None]).max(axis=1)
        xi, ui = x[inside], u[inside]
        total = np.where(face[inside], 1.0, xi.sum(axis=1))
        r = np.hypot(xi, ui[:, None])
        value[inside] = (
            0.5 * total * math.log(p.lam) - math.log(p.rho) + math.log(d)
            + _xlogy(1.0 - total, ui) + _xlogy(xi, xi + r).sum(axis=1)
        )
    return {
        "value": np.where(value > 0.0, value, 0.0).tolist(),
        "argmax_s": [s if f else None for s, f in zip(s_star.tolist(), found.tolist())],
        "at_infinity": (face & ~found).tolist(),
        "domain_class": classes.tolist(),
        "iterations": iterations.tolist(),
        "kkt_residual": kkt.tolist(),
    }


def rate_closed_form(p: ModelParams, x) -> float:
    """Explicit rate formulas: d = 1 and d = 2 for lam in (0, 1), and the
    entropy form ln d + sum x_i ln x_i for lam = 0 in dimension >= 2.

    Raises ValueError outside each formula's stated range; the d = 2
    expression is evaluated on the open region sum(x) < 1 where its
    radical is positive.
    """
    x = _finite_rows("x", [x], p.dim)[0]
    if p.lam == 0.0:
        if p.dim < 2:
            raise ValueError("no closed form for dim=1, lam=0")
        if np.any(x < 0.0) or abs(float(x.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError("lam=0 closed form needs x on the probability simplex")
        return math.log(p.dim) + float(np.sum(_xlogy(x, x)))
    if p.dim == 1:
        v = float(x[0])
        if not 0.0 <= v <= 1.0:
            raise ValueError("d=1 closed form needs x in [0, 1]")
        return (
            0.5 * v * math.log(p.lam)
            - math.log(p.rho)
            + float(_xlogy(0.5 * (1.0 + v), 1.0 + v))
            + float(_xlogy(0.5 * (1.0 - v), 1.0 - v))
        )
    if p.dim == 2:
        if np.any(x < 0.0) or float(x.sum()) >= 1.0:
            raise ValueError("d=2 closed form needs x >= 0 with sum(x) < 1")
        x1, x2 = float(x[0]), float(x[1])
        a = x1 * x1 - x2 * x2
        # den^2 = a^2 + 1 - 2(x1^2 + x2^2), taken in its factored form
        # (1 - (x1+x2)^2)(1 - (x1-x2)^2), which is positive on the open
        # domain and does not cancel near the corners of the face.
        plus, minus = x1 + x2, x1 - x2
        den = math.sqrt((1.0 - plus) * (1.0 + plus) * (1.0 - minus) * (1.0 + minus))
        bar = (
            float(_xlogy(x1, (1.0 + a + 2.0 * x1) / den))
            + float(_xlogy(x2, (1.0 - a + 2.0 * x2) / den))
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
        sized = hasattr(self.times, "__len__") and hasattr(self.values, "__len__")
        if not sized or len(self.times) < 2 or len(self.times) != len(self.values):
            raise ValueError("need matching times and values with at least 2 rows")
        dims = {len(row) if hasattr(row, "__len__") else None for row in self.values}
        if len(dims) != 1 or None in dims:
            raise ValueError("'phi' rows must be sequences of one length")
        # named by the keys of path_from_json
        times = _finite_rows("'t'", self.times, 1)[:, 0]
        values = _finite_rows("'phi'", self.values, dims.pop())
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "values", tuple(map(tuple, values.tolist())))
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("breakpoints must run from t=0 to t=1")
        if (np.diff(times) <= 0.0).any():
            raise ValueError("breakpoints must be strictly increasing")
        if (values[0] != 0.0).any():
            raise ValueError("paths must start at the origin")
        if (values < 0.0).any():
            raise ValueError("path values must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.values[0])

    def durations(self) -> np.ndarray:
        return np.diff(np.asarray(self.times))

    def slopes(self) -> np.ndarray:
        vals = np.asarray(self.values)
        with np.errstate(over="ignore"):     # +inf beyond double range
            return np.diff(vals, axis=0) / self.durations()[:, None]


def path_from_json(rows) -> PiecewiseLinearPath:
    """Build a path from parsed JSON, a list of {"t": ..., "phi": [...]}
    rows.  Each t, and each entry of each phi list, must be a number within
    double range: a string, a boolean or a larger integer raises ValueError
    naming its key (see PiecewiseLinearPath)."""
    try:
        times = tuple(row["t"] for row in rows)
        values = tuple(row["phi"] for row in rows)
    except (TypeError, KeyError, IndexError) as err:
        raise ValueError("each breakpoint needs keys 't' and 'phi'") from err
    for phi in values:
        if not isinstance(phi, list):
            raise ValueError(f"'phi' must be a list of numbers, got {phi!r}")
    return PiecewiseLinearPath(times=times, values=values)


def path_rate_functional(p: ModelParams, path: PiecewiseLinearPath) -> float:
    """Action of a piecewise linear path: sum_k (t_{k+1} - t_k) * rate(slope_k),
    +inf as soon as one slope leaves the effective domain."""
    if path.dim != p.dim:
        raise ValueError(f"path has dimension {path.dim}, model has {p.dim}")
    return _action(path, _slope_rates(p, path.slopes()))


def _slope_rates(p: ModelParams, slopes: np.ndarray) -> list[float]:
    """Rate of each segment's slope, the finite ones from one batched
    query; a slope beyond double range is outside the domain."""
    finite = np.isfinite(slopes).all(axis=1)
    rates = np.full(len(slopes), math.inf)
    rates[finite] = rate_functions(p, slopes[finite])["value"]
    return rates.tolist()


def _action(path: PiecewiseLinearPath, rates) -> float:
    """sum_k (t_{k+1} - t_k) * rates[k], +inf at the first infinite rate."""
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


def _halfspace_infimum(p: ModelParams, a: float) -> float:
    # inf of the rate over the closed set {x : x_1 >= a}.  Below the speed
    # the infimum is 0 at x = v.  Above it, by the contraction principle,
    # it is the rate of the first coordinate alone,
    # sup_s { a*s - ln psi(s, 0, ..., 0) }, whose stationarity in z = e^s
    # is (1 - a) z^2 - a(d-1)(1+lam) z - lam(1+a) = 0.  At a = 1 that
    # quadratic degenerates and the infimum sits at the face point e_1.
    v1 = float(p.speed[0])
    if a <= v1 + 1e-15:
        return 0.0
    if a >= 1.0:
        return rate_function(p, np.eye(p.dim)[0]).value
    b = a * (p.dim - 1) * (1.0 + p.lam)
    # sqrt(4 lam (1-a)(1+a)), split so a subnormal lam keeps its digits
    c = 2.0 * math.sqrt((1.0 - a) * (1.0 + a)) * math.sqrt(p.lam)
    s = math.log((b + math.hypot(b, c)) / (2.0 * (1.0 - a)))
    return max(0.0, a * s - log_psi(p, [s] + [0.0] * (p.dim - 1)))


def ldp_consistency(p: ModelParams, a: float, n_values) -> list[ConsistencyRow]:
    """Exact finite-n tail rates against the limiting rate, one row per
    horizon.

    For each n the tail probability P(|X_n^1| >= a*n) comes from the exact
    law of the reflected chain started at the origin, read off one sweep to
    the largest horizon; the integer cutoff is ceil(a*n) with a tiny guard
    so that thresholds that are exact integers in real arithmetic are not
    pushed up by float noise.
    """
    if not _real(a) or not 0.0 <= a <= 1.0:
        raise ValueError(f"threshold a must lie in [0, 1], got {a!r}")
    n_values = list(n_values) if np.iterable(n_values) else n_values
    if not (isinstance(n_values, list) and all(_integer(n) for n in n_values)):
        raise ValueError(f"horizons must be integers, got {n_values!r}")
    horizons = sorted(int(n) for n in n_values)
    if horizons and horizons[0] < 1:
        raise ValueError("horizons must be positive")
    limit = _halfspace_infimum(p, a)
    # fsum ignores the order of the terms
    readings = exact._sweep(p, "reflected", (0,) * p.dim, max(horizons, default=0))
    tails = {k: math.fsum(values[sites[0] >= math.ceil(a * k - 1e-9)])
             for k, (values, sites) in enumerate(readings) if k in horizons}
    rows = []
    for n in horizons:
        tail = tails[n]
        rate = math.inf if tail == 0.0 else -math.log(tail) / n
        rows.append(ConsistencyRow(n=n, tail_prob=tail, empirical_rate=rate,
                                   limit_rate=limit, gap=rate - limit))
    return rows
