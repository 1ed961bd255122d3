"""Exact finite-horizon computations for the biased walk.

The laws come from dynamic programming over the finite reachable set: after
n steps the walk started at x lives in a box of side O(n), so its law can be
propagated exactly (up to double rounding) with no truncation.  The three
propagators share one sweep, which differs only in its box ([0, x + n] for
the reflected chain, [x - n, x + n] for the signed and drifted walks) and
in the rows of ``kernel.move_table`` that its cells read their move
probabilities from.
The sweep keeps only the box cells within L1 distance n of x, in two
parity blocks ordered by distance, and step k updates only the cells
within distance k whose distance has the parity of k: the reachable set.
It gives the same bits as updating the whole box.  Truncating would
silently void the inequality checks, so none is performed; requests whose
whole box would exceed the configured cell budget raise
ResourceBudgetError instead, before any step.

The module provides

- ``propagate``            exact law of the reflected chain on Z_+^d,
- ``propagate_full``       exact law of the signed walk on Z^d,
- ``propagate_drifted``    exact law of the free comparison walk Z,
- ``enumerate_oracle``     rational-arithmetic path enumeration with its
                           own Fraction kernel (ground truth for the
                           propagators at small n), and ``fold_to_orthant``
                           to compare it with ``propagate``,
- ``log_mgf``              Lambda_n(s, x) = ln E_x exp(sum_i s_i |X_n^i|),
                           which reuses the law of the last few
                           (lam, x, n), so a run of tilts sweeps once,
- ``return_probability``   P(X_{2n} = 0 | X_0 = 0), and
  ``return_probability_profile`` every even horizon of it from one sweep,
- ``ballot_counts``        exact ballot-style path counts P and Q,
- ``check_domination_*``   exhaustive verification that the drifted walk
                           dominates the biased walk from above, and from
                           below up to the factor n^{-d}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ResourceBudgetError
from .kernel import ModelParams, State, kappa, move_row, move_table

SparseDistribution = dict[State, float]

# Cell budget for dense propagation; d <= 3 at a few hundred steps fits.
DEFAULT_MAX_CELLS = 2_000_000

# Path budget for the rational enumeration oracle ((2d)^n paths).
DEFAULT_MAX_PATHS = 300_000


# ---------------------------------------------------------------------------
# dense grid propagation
# ---------------------------------------------------------------------------


def _axis_view(arr: np.ndarray, dim: int, axis: int) -> np.ndarray:
    """Reshape a 1-d per-axis array so it broadcasts along the given axis."""
    shape = [1] * dim
    shape[axis] = -1
    return arr.reshape(shape)


def _evolve(
    shape: tuple[int, ...],
    start_idx: tuple[int, ...],
    weights: Callable[[tuple[np.ndarray, ...]], list[tuple[object, object]]],
    n: int,
    snapshot: Callable[[int, np.ndarray, tuple[np.ndarray, ...]], None] | None = None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Push a point mass through n steps of a nearest-neighbour kernel.

    weights(cells) gives, for the cells whose box indices along each axis
    are the 1-d arrays in cells, the per-axis pairs (w_up, w_down): the
    probability of moving +1 / -1 along axis i from each cell, as an array
    over the cells, a scalar, or None (no such move).  A move out of the
    box is dropped, so the box must contain the n-step reachable set.

    Every step moves the L1 distance from the start by one, so after k
    steps the mass lies on the cells within distance k of the start whose
    distance has the parity of k.  The box cells within distance n are
    kept as two parity blocks, each ordered by distance, and step k writes
    only the first cells of block k % 2, those within distance k.  Each of
    them pulls its sources from the other block one move at a time, in the
    order axis 0 up, axis 0 down, axis 1 up, ...; a source outside the box
    or beyond distance n reads the block's last slot, a pad that holds 0.0.
    So each cell gets the same nonzero products, added in the same order,
    as in a sweep of the whole box; the terms skipped are exact zeros, and
    the values are bit-identical to it.

    Returns the support array, the part of the box within n of the start
    along every axis, and the box index of its first cell.  snapshot(k,
    values, cells) sees each step's values in level order, together with
    the box indices of their cells, one array per axis; later steps
    overwrite the values.  Indices are int32, so the box must hold fewer
    than 2**31 cells.
    """
    dim = len(shape)
    # distances from the start over the box
    dist = 0
    for i, (s, a) in enumerate(zip(shape, start_idx)):
        dist = dist + _axis_view(np.abs(np.arange(s, dtype=np.int32) - a), dim, i)
    dist = dist.ravel()
    kept = np.flatnonzero(dist <= n)
    level = dist[kept]
    # parity first, then distance, then C order; the narrowest key type
    # lets numpy's stable sort use radix sort for the usual n
    key = level % 2 * (n + 1) + level
    order = np.argsort(key.astype(np.min_scalar_type(2 * n + 1)), kind="stable")
    kept, level = kept[order].astype(np.int32), level[order]
    ends = (0, kept.size - int(np.count_nonzero(level % 2)), kept.size)
    sizes = (ends[1], ends[2] - ends[1])
    # reach[b][k]: the cells of block b within distance k of the start
    reach = [np.searchsorted(level[a:b], np.arange(n + 1), "right")
             for a, b in zip(ends, ends[1:])]
    # the distances are spent: reuse their array as each cell's place in its
    # block, -1 (the pad) for a cell not kept
    pos = dist
    pos.fill(-1)
    for a, b in zip(ends, ends[1:]):
        pos[kept[a:b]] = np.arange(b - a, dtype=np.int32)
    strides = [math.prod(shape[i + 1:]) for i in range(dim)]
    coords = tuple(kept // stride % side for stride, side in zip(strides, shape))
    # tables[b]: per move, each block-b cell's source in the other block and
    # the move's probability there, tabled one move at a time so that only
    # one move's weights are ever spread over the cells.  They are spread
    # over the two blocks, each followed by its pad's 0.0.
    padded = (slice(0, ends[1] + 1), slice(ends[1] + 1, ends[2] + 2))
    slots = np.arange(kept.size)
    slots[ends[1]:] += 1
    tables: tuple[list, list] = ([], [])
    for i, pair in enumerate(weights(coords)):
        for step, w in zip((1, -1), pair):
            if w is None:
                continue
            # the source is the pad where it leaves the box
            inside = coords[i] != (0 if step == 1 else shape[i] - 1)
            src = np.full(kept.size, -1, dtype=np.int32)
            src[inside] = pos[kept[inside] - step * strides[i]]
            spread = np.zeros(kept.size + 2)
            spread[slots] = w
            for b, o in ((0, 1), (1, 0)):
                idx = src[ends[b]:ends[b + 1]]
                tables[b].append((idx, spread[padded[o]][idx]))
    # only the tables and the cells' indices outlive the build
    del dist, pos, kept, level, key, order, slots, spread
    P = [np.zeros(size + 1) for size in sizes]
    P[0][0] = 1.0
    cells = [tuple(c[a:b] for c in coords) for a, b in zip(ends, ends[1:])]
    term = np.empty(max(sizes))
    if snapshot is not None:
        snapshot(0, P[0][:1], tuple(c[:1] for c in cells[0]))
    for k in range(1, n + 1):
        b = k % 2
        m = reach[b][k]
        src, out, buf = P[1 - b], P[b][:m], term[:m]
        (first, w_first), *rest = tables[b]
        src.take(first[:m], out=out, mode="wrap")
        out *= w_first[:m]
        for idx, w in rest:
            src.take(idx[:m], out=buf, mode="wrap")
            buf *= w[:m]
            out += buf
        if snapshot is not None:
            snapshot(k, out, tuple(c[:m] for c in cells[b]))
    b, m = n % 2, reach[n % 2][n]
    lo = tuple(max(a - n, 0) for a in start_idx)
    hi = tuple(min(a + n + 1, s) for a, s in zip(start_idx, shape))
    support = np.zeros(tuple(h - a for a, h in zip(lo, hi)))
    support[tuple(c[:m] - a for c, a in zip(cells[b], lo))] = P[b][:m]
    return support, lo


def _move_weights(p: ModelParams, walk: str, coords):
    """Per-axis (up, down) move probabilities of the walk at the sites with
    the lattice coordinates in coords, one gather from kernel.move_table
    per move; None for a move that no site makes (a down move at lam = 0)."""
    widths, big_d = move_table(p, walk)
    row = move_row(walk, coords)
    probs = [col[row] if made else None
             for col, made in zip((widths / big_d[:, None]).T, widths.any(axis=0))]
    return list(zip(probs[1::2], probs[0::2]))


def _integer(x) -> bool:
    """Whether x is an integer, a numpy one included, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _box(
    p: ModelParams, walk: str, start: State, n: int, max_cells: float
) -> tuple[State, tuple[int, ...]]:
    """Check the arguments of a sweep of the walk and its cell budget, and
    return the corner and shape of its box: the smallest box holding the
    reachable set, [0, start + n] for the reflected chain, else
    [start - n, start + n].  The budget counts the whole box, though only
    the cells within n of start are swept (see _evolve)."""
    orthant = walk == "reflected"
    if len(start) != p.dim:
        raise ValueError(f"start has {len(start)} coordinates, expected {p.dim}")
    if not all(_integer(c) for c in start):
        raise ValueError(f"start must have integer coordinates, got {start}")
    if orthant and any(c < 0 for c in start):
        raise ValueError(f"start must lie in Z_+^{p.dim}, got {start}")
    if not _integer(n):
        raise ValueError(f"step count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    corner = (0,) * p.dim if orthant else tuple(c - n for c in start)
    shape = tuple(c + n + 1 - lo for c, lo in zip(start, corner))
    if math.prod(shape) > max_cells:
        raise ResourceBudgetError(f"propagation grid needs {math.prod(shape)} cells "
                                  f"(shape {shape}), budget is {max_cells}")
    return corner, shape


def _sweep(
    p: ModelParams,
    walk: str,
    start: State,
    n: int,
    max_cells: float,
    snapshot: Callable[[int, np.ndarray, tuple[np.ndarray, ...]], None] | None = None,
) -> tuple[np.ndarray, State]:
    """Propagate a point mass at start for n steps of the walk inside its
    box (see _box).  Returns the final support array and the site of its
    first cell; the cells passed to snapshot are box indices, which on the
    orthant are the sites."""
    corner, shape = _box(p, walk, start, n, max_cells)
    at = tuple(c - lo for c, lo in zip(start, corner))
    grid, lo = _evolve(
        shape, at,
        lambda cells: _move_weights(p, walk, [c + i for c, i in zip(corner, cells)]),
        n, snapshot,
    )
    return grid, tuple(a + b for a, b in zip(corner, lo))


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
    return _law(*_sweep(p, "reflected", start, n, max_cells))


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
    return _law(*_sweep(p, "signed", start, n, max_cells))


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
    return _law(*_sweep(p, "drifted", start, n, max_cells))


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
    # the arguments of a signed sweep, with no cell budget
    _box(p, "signed", start, n, math.inf)
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


def _logsumexp(a: np.ndarray) -> float:
    """ln sum(exp(a)) of a 1-d float array.  The m maximal terms are
    pulled out of the shifted sum s, which is divided by m unless it is 0,
    and the value is log1p(s) + log(m) + a_max; where that is not finite
    (an infinite or NaN term, or every term -inf) it is log(sum(exp(a))).
    The steps are written out here, not taken from a library whose
    log-sum-exp has changed between versions, so that the mgf artifacts
    do not depend on what is installed.  Never warns."""
    with np.errstate(all="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.float64(np.count_nonzero(top))
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        value = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(value):
            value = np.log(np.sum(np.exp(a)))
    return float(value)


@lru_cache(maxsize=4)
def _log_law(
    p: ModelParams, start: State, n: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The tilt-independent part of log_mgf: ln of the nonzero masses of
    the n-step reflected law from start, in C order of their sites, and
    those sites, an int32 array per axis.  Kept for the last few (p, start,
    n), so that a run of tilts sweeps once; the caller has checked the
    arguments and the budget.  The arrays are read-only."""
    grid, corner = _sweep(p, "reflected", start, n, math.inf)
    nz = np.nonzero(grid)
    sites = tuple((i + c).astype(np.int32) for i, c in zip(nz, corner))
    logs = np.log(grid[nz])
    for a in (logs, *sites):
        a.flags.writeable = False
    return logs, sites


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
    large positive s at large n cannot overflow.  The law of the last few
    (p, start, n) is kept, so further tilts at them cost no sweep.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (p.dim,):
        raise ValueError(f"s must have shape ({p.dim},), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"s must be finite, got {s.tolist()}")
    # checked before the lookup, so a kept law never escapes a smaller budget
    _box(p, "reflected", start, n, max_cells)
    logs, sites = _log_law(p, tuple(int(c) for c in start), int(n))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = logs
        for i in range(p.dim):
            terms = terms + s[i] * sites[i]
        if not np.isfinite(terms).all():
            # a product s_i y_i overflowed, perhaps against one of the other
            # sign, though s.y itself may be in range: sum the tilt scaled by
            # max |s_i| first, then scale back
            top = float(np.max(np.abs(s)))
            dot = sum((s[i] / top) * sites[i] for i in range(p.dim))
            terms = logs + top * dot
    value = _logsumexp(terms)
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
    return float(_sweep(p, "reflected", origin, horizon, max_cells)[0][origin])


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

    def snap(k: int, values: np.ndarray, cells) -> None:
        # the start is the only cell at distance 0, so it comes first
        if k % 2 == 0:
            out.append((k, float(values[0])))

    _sweep(p, "reflected", origin, max_horizon, max_cells, snap)
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


def _orthant_differences(
    p: ModelParams, start: State, n: int, max_cells: int, scale: float
) -> tuple[np.ndarray, int]:
    """px - scale * pz on the orthant cells where the signed law px or the
    drifted law pz from start is nonzero, and the number of those cells.
    Both sweeps use the box [start - n, start + n], so their arrays share
    one corner."""
    px, corner = _sweep(p, "signed", start, n, max_cells)
    pz, _ = _sweep(p, "drifted", start, n, max_cells)
    orthant = tuple(slice(max(-c, 0), None) for c in corner)
    px, pz = px[orthant], pz[orthant]
    cells = (px != 0.0) | (pz != 0.0)
    return (px - scale * pz)[cells], int(np.count_nonzero(cells))


def check_domination_upper(
    p: ModelParams,
    n: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> DominationReport:
    """Verify P_0(X_n = k) <= P(Z_n = k | Z_0 = 0) for every k in Z_+^d.

    Scans the union of both supports restricted to the orthant and reports
    the largest difference (mathematically <= 0)."""
    diff, cells = _orthant_differences(p, (0,) * p.dim, n, max_cells, 1.0)
    return DominationReport(
        mode="upper", n=n, cells_checked=cells, max_violation=float(diff.max())
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
    scale = float(n) ** (-p.dim)
    diff, cells = _orthant_differences(p, z, n, max_cells, scale)
    return DominationReport(
        mode="lower", n=n, cells_checked=cells, min_slack=float(diff.min())
    )
