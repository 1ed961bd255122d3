"""Exact finite-horizon computations for the biased walk.

The laws come from dynamic programming over the finite reachable set: after
n steps the walk started at x lives in a box of side O(n), so its law can be
propagated exactly (up to double rounding) with no truncation.  The three
propagators share one sweep, which differs only in its box ([0, x + n] for
the reflected chain, [x - n, x + n] for the signed and drifted walks) and
in its per-cell move probabilities, built from ``kernel.site_weight``.
Step k updates only the support box, the part of that box within k of x
in every coordinate, and gives the same bits as updating the whole box.
Truncating would silently void the inequality checks, so none is
performed; requests whose whole box would exceed the configured cell
budget raise ResourceBudgetError instead, before any step.

The module provides

- ``propagate``            exact law of the reflected chain on Z_+^d,
- ``propagate_full``       exact law of the signed walk on Z^d,
- ``propagate_drifted``    exact law of the free comparison walk Z,
- ``enumerate_oracle``     rational-arithmetic path enumeration with its
                           own Fraction kernel (ground truth for the
                           propagators at small n), and ``fold_to_orthant``
                           to compare it with ``propagate``,
- ``log_mgf``              Lambda_n(s, x) = ln E_x exp(sum_i s_i |X_n^i|),
- ``return_probability``   P(X_{2n} = 0 | X_0 = 0), and
  ``return_probability_profile`` every even horizon of it from one sweep,
- ``ballot_counts``        exact ballot-style path counts P and Q,
- ``check_domination_*``   exhaustive verification that the drifted walk
                           dominates the biased walk from above, and from
                           below up to the factor n^{-d}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable

import numpy as np
from scipy.special import logsumexp

from .errors import ResourceBudgetError
from .kernel import ModelParams, State, kappa, site_weight

SparseDistribution = dict[State, float]

# Cell budget for dense propagation; d <= 3 at a few hundred steps fits.
DEFAULT_MAX_CELLS = 2_000_000

# Path budget for the rational enumeration oracle ((2d)^n paths).
DEFAULT_MAX_PATHS = 300_000


# ---------------------------------------------------------------------------
# dense grid propagation
# ---------------------------------------------------------------------------


def _check_budget(shape: tuple[int, ...], max_cells: int) -> None:
    cells = math.prod(shape)
    if cells > max_cells:
        raise ResourceBudgetError(
            f"propagation grid needs {cells} cells (shape {shape}), "
            f"budget is {max_cells}"
        )


def _axis_view(arr: np.ndarray, dim: int, axis: int) -> np.ndarray:
    """Reshape a 1-d per-axis array so it broadcasts along the given axis."""
    shape = [1] * dim
    shape[axis] = -1
    return arr.reshape(shape)


def _evolve(
    shape: tuple[int, ...],
    start_idx: tuple[int, ...],
    axis_weights: list[tuple[object, object]],
    n: int,
    snapshot: Callable[[int, np.ndarray, tuple[int, ...]], None] | None = None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Push a point mass through n steps of a nearest-neighbour kernel.

    axis_weights[i] = (w_up, w_down): per-cell probability of moving +1 / -1
    along axis i, evaluated at the source cell.  Entries may be scalars,
    arrays broadcastable to shape, or None (no such move).  A move out of
    the box is dropped, so the box must contain the n-step reachable set.

    Only the support box [lo, hi) is swept: it starts at the start cell
    and grows by one cell per axis per step, clipped to the box.  Each cell
    gets the same products, added in the same order, as in a sweep of the
    whole box; the terms skipped are exact zeros, so the values are
    bit-identical to it.  Returns the support array and lo; snapshot(k,
    support, lo) sees every step's array, which later steps overwrite.
    """
    dim = len(shape)
    size = math.prod(shape)
    buffers, scratch = (np.empty(size), np.empty(size)), np.empty(size)
    moves = [(i, step, np.broadcast_to(w, shape))
             for i, pair in enumerate(axis_weights)
             for step, w in zip((1, -1), pair) if w is not None]
    whole = (slice(None),) * dim
    lo, hi = list(start_idx), [c + 1 for c in start_idx]
    P = buffers[0][:1].reshape((1,) * dim)
    P.fill(1.0)
    if snapshot is not None:
        snapshot(0, P, tuple(lo))
    for k in range(1, n + 1):
        new_lo = [max(a - 1, 0) for a in lo]
        new_hi = [min(b + 1, s) for b, s in zip(hi, shape)]
        new_shape = tuple(b - a for a, b in zip(new_lo, new_hi))
        new = buffers[k % 2][:math.prod(new_shape)].reshape(new_shape)
        new.fill(0.0)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        held = tuple(slice(a - c, b - c) for a, b, c in zip(lo, hi, new_lo))
        term = scratch[:P.size].reshape(P.shape)
        for i, step, w in moves:
            # the sources along axis i whose target lies inside the box
            a, b = max(lo[i], int(step < 0)), min(hi[i], shape[i] - int(step > 0))
            if a < b:
                np.multiply(P, w[box], out=term)
                src = whole[:i] + (slice(a - lo[i], b - lo[i]),)
                dst = slice(a + step - new_lo[i], b + step - new_lo[i])
                new[held[:i] + (dst,) + held[i + 1:]] += term[src]
        P, lo, hi = new, new_lo, new_hi
        if snapshot is not None:
            snapshot(k, P, tuple(lo))
    return P, tuple(lo)


def _reflected_weights(p: ModelParams, coords: list[np.ndarray]):
    """Up/down move probabilities of the reflected chain on Z_+^d."""
    zero = [c == 0 for c in coords]
    big_d = site_weight(p, sum(zero))
    w_down = (p.lam / big_d) if p.lam > 0.0 else None
    return [(np.where(z, 2.0, 1.0) / big_d, w_down) for z in zero]


def _signed_weights(p: ModelParams, coords: list[np.ndarray]):
    """Up/down move probabilities of the signed walk on Z^d: +1 is inward
    exactly when the coordinate is negative, -1 exactly when it is
    positive."""
    big_d = site_weight(p, sum(c == 0 for c in coords))
    return [
        (np.where(c < 0, p.lam, 1.0) / big_d, np.where(c > 0, p.lam, 1.0) / big_d)
        for c in coords
    ]


def _drifted_weights(p: ModelParams, coords: list[np.ndarray]):
    """Up/down move probabilities of the free comparison walk Z, the same
    at every site."""
    w_up = 1.0 / (p.dim * (1.0 + p.lam))
    w_down = (p.lam / (p.dim * (1.0 + p.lam))) if p.lam > 0.0 else None
    return [(w_up, w_down)] * p.dim


def _sweep(
    p: ModelParams,
    start: State,
    n: int,
    max_cells: int,
    weights: Callable,
    *,
    orthant: bool,
    snapshot: Callable[[int, np.ndarray, tuple[int, ...]], None] | None = None,
) -> tuple[np.ndarray, State]:
    """Propagate a point mass at start for n steps inside the smallest box
    holding the reachable set: [0, start + n] on the orthant, else
    [start - n, start + n].  weights(p, coords) gives the per-axis move
    probabilities from the coordinates of the box cells.  The cell budget
    counts the whole box, though only the support is swept (see _evolve).
    Returns the final support array and the site of its first cell; the lo
    passed to snapshot is a box index, which on the orthant is the site."""
    if len(start) != p.dim:
        raise ValueError(f"start has {len(start)} coordinates, expected {p.dim}")
    if orthant and any(c < 0 for c in start):
        raise ValueError(f"start must lie in Z_+^{p.dim}, got {start}")
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    corner = (0,) * p.dim if orthant else tuple(c - n for c in start)
    shape = tuple(c + n + 1 - lo for c, lo in zip(start, corner))
    _check_budget(shape, max_cells)
    coords = [
        _axis_view(lo + np.arange(k), p.dim, i)
        for i, (lo, k) in enumerate(zip(corner, shape))
    ]
    at = tuple(c - lo for c, lo in zip(start, corner))
    grid, lo = _evolve(shape, at, weights(p, coords), n, snapshot)
    return grid, tuple(a + b for a, b in zip(corner, lo))


_reflected = partial(_sweep, weights=_reflected_weights, orthant=True)


def _law(grid: np.ndarray, corner: State) -> SparseDistribution:
    """The nonzero cells of a grid, keyed by lattice site."""
    idx = np.nonzero(grid)
    sites = zip(*((i + lo).tolist() for i, lo in zip(idx, corner)))
    return dict(zip(sites, grid[idx].tolist()))


def propagate(
    p: ModelParams,
    start: State,
    n: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> SparseDistribution:
    """Exact law of the reflected chain after n steps from start in Z_+^d.

    Support is contained in {y in Z_+^d : sum(y) <= sum(start) + n, with
    sum(y) = sum(start) + n (mod 2)}; total mass is 1 up to rounding.
    """
    return _law(*_reflected(p, start, n, max_cells))


def propagate_full(
    p: ModelParams,
    start: State,
    n: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> SparseDistribution:
    """Exact law of the signed walk on Z^d after n steps from start.

    Needed by the domination checks: reading the orthant values off the
    reflected law by redistributing over sign patterns is wrong in general,
    so the full chain is propagated directly.
    """
    return _law(*_sweep(p, start, n, max_cells, _signed_weights, orthant=False))


def propagate_drifted(
    p: ModelParams,
    start: State,
    n: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> SparseDistribution:
    """Exact law of the free comparison walk Z after n steps from start.

    Z steps +e_i with probability 1/(d(1+lam)) and -e_i with probability
    lam/(d(1+lam)) regardless of position.
    """
    return _law(*_sweep(p, start, n, max_cells, _drifted_weights, orthant=False))


# ---------------------------------------------------------------------------
# rational path-enumeration oracle
# ---------------------------------------------------------------------------


def fold_to_orthant(dist: dict) -> dict:
    """Push a distribution on Z^d to Z_+^d through coordinate-wise absolute
    value.  Works for float and Fraction masses alike."""
    out: dict = {}
    for v, mass in dist.items():
        y = tuple(abs(c) for c in v)
        out[y] = out.get(y, 0) + mass
    return out


def enumerate_oracle(
    p: ModelParams,
    start: State,
    n: int,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> dict[State, Fraction]:
    """Exact n-step law of the signed walk by exhaustive path enumeration.

    Walks every nearest-neighbour path of length n out of start and sums the
    products of one-step probabilities in exact rational arithmetic.  The
    bias enters as Fraction(p.lam) - the exact rational value of the stored
    double - so a comparison against the floating propagators measures
    arithmetic rounding only, with no parameter-conversion gap.

    Masses are Fractions and sum to exactly 1.
    """
    if len(start) != p.dim:
        raise ValueError(f"start has {len(start)} coordinates, expected {p.dim}")
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if (2 * p.dim) ** n > max_paths:
        raise ResourceBudgetError(
            f"enumeration would visit up to {(2 * p.dim) ** n} paths, "
            f"budget is {max_paths}"
        )
    lam = Fraction(p.lam)
    d = p.dim
    kernel_cache: dict[State, list[tuple[State, Fraction]]] = {}

    def kernel(v: State) -> list[tuple[State, Fraction]]:
        cached = kernel_cache.get(v)
        if cached is not None:
            return cached
        big_d = d + kappa(v) + lam * (d - kappa(v))
        moves = []
        for i in range(d):
            for step in (-1, 1):
                u = v[:i] + (v[i] + step,) + v[i + 1 :]
                prob = (lam if abs(u[i]) < abs(v[i]) else 1) / big_d
                if prob:
                    moves.append((u, prob))
        kernel_cache[v] = moves
        return moves

    acc: dict[State, Fraction] = {}

    def walk(v: State, prob: Fraction, left: int) -> None:
        if left == 0:
            acc[v] = acc.get(v, Fraction(0)) + prob
            return
        for u, q in kernel(v):
            walk(u, prob * q, left - 1)

    walk(tuple(start), Fraction(1), n)
    return acc


# ---------------------------------------------------------------------------
# moment generating function and return probabilities
# ---------------------------------------------------------------------------


def log_mgf(
    p: ModelParams,
    start: State,
    n: int,
    s,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> float:
    """Lambda_n(s, start) = ln E_start[exp(sum_i s_i |X_n^i|)].

    Computed from the exact reflected law with log-space accumulation, so
    large positive s at large n cannot overflow.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (p.dim,):
        raise ValueError(f"s must have shape ({p.dim},), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"s must be finite, got {s.tolist()}")
    grid, corner = _reflected(p, start, n, max_cells)
    nz = np.nonzero(grid)
    cells = [nz[i] + corner[i] for i in range(p.dim)]
    logs = np.log(grid[nz])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = logs
        for i in range(p.dim):
            terms = terms + s[i] * cells[i]
        value = float(logsumexp(terms))
        if not math.isfinite(value):
            # the products s_i y_i overflowed, perhaps in opposite directions:
            # sum the tilt scaled by max |s_i| first, then scale back
            top = float(np.max(np.abs(s)))
            dot = sum((s[i] / top) * cells[i] for i in range(p.dim))
            value = float(logsumexp(logs + top * dot))
    if not math.isfinite(value):
        raise OverflowError(f"Lambda_{n}(s) for s={s.tolist()} is beyond double range")
    return value


def return_probability(
    p: ModelParams,
    horizon: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> float:
    """P(X_horizon = 0 | X_0 = 0) for an even horizon.

    The walk has period two, so only even horizons are meaningful; odd ones
    raise ValueError.
    """
    if horizon < 0 or horizon % 2:
        raise ValueError(f"horizon must be even and nonnegative, got {horizon}")
    origin = (0,) * p.dim
    # a sweep from the origin keeps the origin as its support's first cell
    return float(_reflected(p, origin, horizon, max_cells)[0][origin])


def return_probability_profile(
    p: ModelParams,
    max_horizon: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> list[tuple[int, float]]:
    """All pairs (2m, P(X_{2m} = 0 | X_0 = 0)) with 2m <= max_horizon,
    from a single propagation sweep."""
    if max_horizon < 0:
        raise ValueError(f"max_horizon must be nonnegative, got {max_horizon}")
    origin = (0,) * p.dim
    out: list[tuple[int, float]] = []

    def snap(k: int, grid: np.ndarray, lo: State) -> None:
        if k % 2 == 0:
            out.append((k, float(grid[origin])))

    _reflected(p, origin, max_horizon, max_cells, snapshot=snap)
    return out


# ---------------------------------------------------------------------------
# ballot-style path counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallotCount:
    """Counts of n-step +-1 paths from alpha to beta.

    total:   all such paths, C(n, (n + beta - alpha)/2).
    floored: those staying >= min(alpha, beta) at every index.
    They satisfy n * floored >= (|alpha - beta| or 1) * total.
    """

    n: int
    alpha: int
    beta: int
    total: int
    floored: int


@lru_cache(maxsize=None)
def _floored_counts(n: int) -> tuple[int, ...]:
    """counts[g] = number of n-step +-1 paths 0 -> g staying >= 0."""
    dp = [0] * (n + 2)
    dp[0] = 1
    for _ in range(n):
        new = [0] * (n + 2)
        for h in range(n + 1):
            c = dp[h]
            if c:
                new[h + 1] += c
                if h > 0:
                    new[h - 1] += c
        dp = new
    return tuple(dp[: n + 1])


def ballot_counts(n: int, alpha: int, beta: int) -> BallotCount:
    """Exact path counts P (all alpha -> beta paths) and Q (those staying at
    or above min(alpha, beta)).

    Q reduces to counting nonnegative-floor paths 0 -> |beta - alpha|:
    translating by -min(alpha, beta) puts the floor at zero, and when the
    path runs downhill, reversing it swaps the endpoints without touching
    the floor constraint.  The reduced count comes from a direct DP over
    (step, height), exact in integer arithmetic.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    gap = abs(beta - alpha)
    if gap > n or (n - gap) % 2:
        return BallotCount(n, alpha, beta, 0, 0)
    total = math.comb(n, (n + gap) // 2)
    floored = _floored_counts(n)[gap]
    return BallotCount(n, alpha, beta, total, floored)


# ---------------------------------------------------------------------------
# domination checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationReport:
    """Outcome of an exhaustive domination sweep at one horizon.

    mode 'upper': max_violation = max over orthant cells of
        P_0(X_n = k) - P(Z_n = k | Z_0 = 0); the claim is <= 0.
    mode 'lower': min_slack = min over orthant cells of
        P_z(X_n = k) - n^(-d) P(Z_n = k | Z_0 = z); the claim is >= 0.
    """

    mode: str
    n: int
    cells_checked: int
    max_violation: float | None = None
    min_slack: float | None = None


def _orthant_cells(dists: Iterable[SparseDistribution]) -> set[State]:
    cells: set[State] = set()
    for dist in dists:
        cells.update(k for k in dist if all(c >= 0 for c in k))
    return cells


def check_domination_upper(
    p: ModelParams,
    n: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> DominationReport:
    """Verify P_0(X_n = k) <= P(Z_n = k | Z_0 = 0) for every k in Z_+^d.

    Scans the union of both supports restricted to the orthant and reports
    the largest difference (mathematically <= 0)."""
    origin = (0,) * p.dim
    px = propagate_full(p, origin, n, max_cells=max_cells)
    pz = propagate_drifted(p, origin, n, max_cells=max_cells)
    cells = _orthant_cells((px, pz))
    worst = max(px.get(k, 0.0) - pz.get(k, 0.0) for k in cells)
    return DominationReport(
        mode="upper", n=n, cells_checked=len(cells), max_violation=worst
    )


def check_domination_lower(
    p: ModelParams,
    z: State,
    n: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> DominationReport:
    """Verify P_z(X_n = k) >= n^(-d) P(Z_n = k | Z_0 = z) for every k in
    Z_+^d, for a start z with every coordinate >= 1 (off the boundary)."""
    if any(c < 1 for c in z):
        raise ValueError(f"start must have every coordinate >= 1, got {z}")
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    px = propagate_full(p, z, n, max_cells=max_cells)
    pz = propagate_drifted(p, z, n, max_cells=max_cells)
    scale = float(n) ** (-p.dim)
    cells = _orthant_cells((px, pz))
    worst = min(px.get(k, 0.0) - scale * pz.get(k, 0.0) for k in cells)
    return DominationReport(
        mode="lower", n=n, cells_checked=len(cells), min_slack=worst
    )
