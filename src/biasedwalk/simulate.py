"""Deterministic vectorised Monte Carlo for the reflected chain.

Random numbers come from a stateless counter-based scheme so that results
are bit-identical for a given plan no matter how paths are batched or
parallelised.  With mix64 the SplitMix64 finalizer (xor-shift/multiply
chain), the uniform driving step t of path j under seed s is

    state0(s, j) = mix64(mix64(s) + j * SALT)
    u(s, j, t)   = (mix64(state0(s, j) + (t+1) * GAMMA) >> 11) * 2**-53

with GAMMA = 0x9E3779B97F4A7C15 and SALT = 0xC2B2AE3D27D4EB4F (both odd, so
distinct paths and steps get distinct counters).  This is exactly a
SplitMix64 draw sequence per path, evaluated positionally: the stream of
path j never depends on how many other paths run beside it.

Each step converts one uniform u into a move by inverse transform over the
2d cells [(coord 0, -1), (coord 0, +1), (coord 1, -1), ...] of the row of
the run's move table (see _table) that the source site's zero pattern
selects: the move is the number of running width totals of the row,
summed left to right up to the next-to-last cell, that do not exceed u*D.

The walk advances in blocks of _BLOCK steps.  A path whose smallest
coordinate is at least the block length cannot reach a hyperplane inside
the block, so every step of it reads row 0: its draws for the whole block
are converted at once and its position, history and visit count are
updated from the moves.  Every other path takes the block one step at a
time, reading the row of its current site.  Both give the moves of a plain
step-by-step loop, bit for bit.

The martingale sums are kept as integer tallies of (path, step) pairs by
table row and cell.  They are turned into floats once, at the end, grouped
by the number of zero coordinates at the source site, whether coordinate i
is zero there and the move on coordinate i, in a fixed order, so the
summary does not depend on how paths were grouped into blocks and is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceBudgetError
from .kernel import ModelParams, State, _check_site, _integer, _moves

_GAMMA = 0x9E3779B97F4A7C15
_SALT = 0xC2B2AE3D27D4EB4F
_MASK = 0xFFFFFFFFFFFFFFFF

# Budget on paths * dim for the in-memory state block, and on the history's
# elements, read at each call.
MAX_ELEMENTS = 50_000_000

# Steps per block.  A path whose smallest coordinate is at least the block
# length cannot reach a coordinate hyperplane before the block's last step.
_BLOCK = 12
# Paths advanced together.  Far from the hyperplanes a (_BLOCK, rows)
# temporary then holds about 16K elements and stays in cache; near them
# each step costs a few dozen numpy calls, which a wider chunk amortises.
_FAR_ROWS = 16384 // _BLOCK
_NEAR_ROWS = 4096
_PAD = 64
# The move table has a row per zero pattern, 2**dim of them.
_MAX_DIM = 16


def _table(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The law of kernel._moves for the reflected chain by zero pattern:
    from a site of row r (see _row) it makes move j, a step of -1 (even j)
    or +1 (odd j) on coordinate j >> 1, with probability widths[r, j] / D[r]."""
    r = np.arange(2**p.dim)
    # one site of each row: coordinate i is 0 where bit i of r is set, else 1
    widths, big_d = _moves(p, "reflected", [1 - (r >> i & 1) for i in range(p.dim)])
    return np.stack([w for pair in widths for w in pair], axis=1), big_d


def _row(Y) -> np.ndarray:
    """Table row of the sites with coordinates Y[i]: sum_i [Y_i = 0] 2^i."""
    return sum((c == 0) << i for i, c in enumerate(Y))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _path_states(seed: int, m: int) -> np.ndarray:
    """Initial SplitMix64 state for each of m path streams."""
    seed_mixed = int(_mix64(np.array([seed & _MASK], dtype=np.uint64))[0])
    offsets = (np.arange(m, dtype=np.uint64)) * np.uint64(_SALT)
    return _mix64(np.uint64(seed_mixed) + offsets)


def _step_uniforms(states: np.ndarray, t) -> np.ndarray:
    """Uniform [0,1) draw number t (0-based) for every path stream.

    t may also be an integer array of shape (k, 1), which gives the (k, m)
    block of draws t[0], ..., t[k-1] with the same bits."""
    t = np.atleast_1d(np.asarray(t, dtype=np.uint64))
    counter = (t + np.uint64(1)) * np.uint64(_GAMMA)     # wraps mod 2**64
    bits = _mix64(states + counter)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SimPlan:
    """One reproducible simulation request.

    Attributes:
        params: model dimension and bias.
        start: initial state in Z_+^d.
        steps: number of steps n per path (>= 1 for batch statistics;
            trajectory alone accepts 0).
        paths: number of independent paths m >= 1.
        seed: 64-bit unsigned stream seed.
    """

    params: ModelParams
    start: State
    steps: int
    paths: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not _integer(self.steps) or self.steps < 0:
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps!r}")
        if not _integer(self.paths) or self.paths < 1:
            raise ValueError(f"paths must be an integer >= 1, got {self.paths!r}")
        if not _integer(self.seed) or not 0 <= self.seed <= _MASK:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        _check_site(self.params, self.start, orthant=True, name="start", reach=self.steps)


@dataclass(frozen=True)
class BatchSummary:
    """Aggregates over one batch.

    mean_endpoint:          average of |X_n^i| / n per coordinate.
    cov_scaled:             sample covariance of (|X_n| - n*v)/sqrt(n) with
                            the known mean n*v as centre (not the sample
                            mean), normalised by the path count.
    boundary_visit_counts:  per path, the number of indices 0 <= k <= n at
                            which some coordinate is zero.
    martingale_mean:        average over all (path, step) pairs of the
                            increments xi_k = |X_k| - |X_{k-1}| - f(X_{k-1}).
                            The increments take finitely many values; their
                            sum is formed once from integer counts of each
                            value, so it is independent of how paths were
                            grouped into blocks.
    """

    mean_endpoint: np.ndarray
    cov_scaled: np.ndarray
    boundary_visit_counts: np.ndarray
    martingale_mean: np.ndarray


@dataclass(frozen=True)
class MartingaleDiagnostic:
    """Per-coordinate sample mean and variance of the martingale increments."""

    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class _RawBatch:
    endpoints: np.ndarray       # (m, d) int64 final states
    visits: np.ndarray          # (m,) int64 boundary-visit counts
    xi_sum: np.ndarray          # (d,) sum of martingale increments
    xi_sumsq: np.ndarray        # (d,) sum of squared increments
    states: np.ndarray | None   # (n+1, m, d) full history if requested


class _Walk:
    """State of a batch in flight: positions, streams, visit counts, the
    optional history and the integer tallies behind the martingale sums.

    Positions are held coordinate-major, ``Y[i, j]`` for coordinate i of
    path j, so that reductions over the coordinates of every path run along
    the long axis.  ``moves[r, j]`` counts the (path, step) pairs that
    moved through cell j from a site of move-table row r."""

    def __init__(self, plan: SimPlan, keep_path: bool) -> None:
        p = plan.params
        d, m = p.dim, plan.paths
        self.dim = d
        self.Y = np.tile(np.asarray(plan.start, dtype=np.int64)[:, None], (1, m))
        self.streams = _path_states(plan.seed, m)
        self.visits = (self.Y == 0).any(axis=0).astype(np.int64)
        self.history = None
        if keep_path:
            self.history = np.empty((plan.steps + 1, m, d), dtype=np.int64)
            self.history[0] = self.Y.T
        self.widths, self.big_d = _table(p)
        # cum[j, r]: the widths of cells 0..j of row r, summed left to right
        self.cum = np.ascontiguousarray(np.cumsum(self.widths, axis=1).T)
        self.moves = np.zeros(self.widths.shape, dtype=np.int64)

    def cell_index(self, row, threshold: np.ndarray) -> np.ndarray:
        """Inverse transform: the number of running width totals of the
        table row, up to the next-to-last cell, that do not exceed the
        threshold."""
        idx = (self.cum[0][row] <= threshold).astype(np.int64)
        for cum in self.cum[1:-1]:
            idx += cum[row] <= threshold
        return idx

    def far_block(self, rows: np.ndarray, t0: int, k: int) -> None:
        """Advance rows whose smallest coordinate is at least k by k steps.

        No source site in the block lies on a hyperplane, so every step
        uses row 0 of the table, and only the block's last index can be a
        boundary visit."""
        d, c = self.dim, rows.size
        Y = self.Y.take(rows, axis=1)
        u = _step_uniforms(self.streams[rows], np.arange(t0, t0 + k)[:, None])
        idx = self.cell_index(0, u * self.big_d[0])
        cells = np.bincount(
            (idx * c + np.arange(c)).ravel(), minlength=2 * d * c
        ).reshape(d, 2, c)
        if self.history is not None:
            step = np.zeros((k, c, d), dtype=np.int64)
            step[np.arange(k)[:, None], np.arange(c), idx >> 1] = ((idx & 1) << 1) - 1
            self.history[t0 + 1 : t0 + k + 1, rows] = Y.T + np.cumsum(step, axis=0)
        Y += cells[:, 1] - cells[:, 0]
        self.Y[:, rows] = Y
        self.visits[rows] += (Y == 0).any(axis=0)
        self.moves[0] += cells.sum(axis=2).ravel()

    def near_block(self, rows: np.ndarray, t0: int, k: int) -> None:
        """Advance rows by k steps one step at a time, each step with the
        table row of its source site."""
        d, c = self.dim, rows.size
        Y = self.Y.take(rows, axis=1)
        streams = self.streams[rows]
        lane = np.arange(c)
        visits = np.zeros(c, dtype=np.int64)
        keys = np.empty((k, c), dtype=np.int64)
        row = _row(Y)
        for s in range(k):
            idx = self.cell_index(row, _step_uniforms(streams, t0 + s) * self.big_d[row])
            keys[s] = row * (2 * d) + idx
            Y[idx >> 1, lane] += ((idx & 1) << 1) - 1
            row = _row(Y)
            visits += row > 0
            if self.history is not None:
                self.history[t0 + s + 1, rows] = Y.T
        self.Y[:, rows] = Y
        self.visits[rows] += visits
        self.moves += np.bincount(keys.ravel(), minlength=self.moves.size).reshape(-1, 2 * d)

    def martingale_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Sums over all (path, step) pairs of xi = delta - f and xi**2 per
        coordinate, taken from the tallies in one fixed order with
        math.fsum, so they do not depend on how paths were grouped into
        blocks and chunks."""
        d = self.dim
        # zero[r, i]: coordinate i is zero at the sites of row r
        zero = (np.arange(len(self.moves))[:, None] >> np.arange(d)) & 1
        down, up = self.moves[:, 0::2], self.moves[:, 1::2]
        stay = self.moves.sum(axis=1)[:, None] - down - up
        # tally[kap, z, delta + 1, i]: pairs with kap zero coordinates at the
        # source, coordinate i zero there (z = 1) or not, and move delta on i
        tally = np.zeros((d + 1, 2, 3, d), dtype=np.int64)
        for j, count in enumerate((down, stay, up)):
            np.add.at(tally, (zero.sum(axis=1, keepdims=True), zero, j, np.arange(d)), count)
        # the drift f_i = (up - down) / D at the source: its numerator off
        # (row 0) and on (last row) the hyperplane of coordinate i; D by kap
        rise = self.widths[[0, -1], 1] - self.widths[[0, -1], 0]
        big_d = self.big_d[(1 << np.arange(d + 1)) - 1]
        xi_sum, xi_sumsq = np.zeros(d), np.zeros(d)
        for i in range(d):
            terms, squares = [], []
            for (kap, z, j), count in np.ndenumerate(tally[..., i]):
                if count:
                    xi = (j - 1) - rise[z] / big_d[kap]
                    terms.append(int(count) * xi)
                    squares.append(int(count) * (xi * xi))
            xi_sum[i] = math.fsum(terms)
            xi_sumsq[i] = math.fsum(squares)
        return xi_sum, xi_sumsq


def _chunks(rows: np.ndarray, size: int):
    for lo in range(0, rows.size, size):
        yield rows[lo : lo + size]


def _run(plan: SimPlan, *, keep_path: bool, max_elements: int) -> _RawBatch:
    p = plan.params
    d, n, m = p.dim, plan.steps, plan.paths
    if m * d > max_elements:
        raise ResourceBudgetError(
            f"batch needs {m * d} state elements, budget is {max_elements}"
        )
    if keep_path and (n + 1) * m * d > max_elements:
        raise ResourceBudgetError(
            f"history needs {(n + 1) * m * d} elements, budget is {max_elements}"
        )
    if d > _MAX_DIM:
        raise ResourceBudgetError(f"simulation supports dim <= {_MAX_DIM}, got {d}")
    walk = _Walk(plan, keep_path)
    # Rows per chunk within the budget: the largest array a block makes,
    # the far rows' per-step moves, holds _BLOCK * d elements per row.
    cap = max(1, max_elements // (_BLOCK * d))
    for t0 in range(0, n, _BLOCK):
        k = min(_BLOCK, n - t0)
        far = walk.Y.min(axis=0) >= k
        # Far rows may also take the step-by-step path.  Lending it enough
        # of them to make its row count a multiple of _PAD keeps its
        # temporaries to a few sizes, which the allocator reuses instead of
        # growing the heap as the count of near rows drifts.
        lend = -np.count_nonzero(~far) % _PAD
        far[np.flatnonzero(far)[:lend]] = False
        for rows in _chunks(np.flatnonzero(far), min(_FAR_ROWS, cap)):
            walk.far_block(rows, t0, k)
        for rows in _chunks(np.flatnonzero(~far), min(_NEAR_ROWS, cap)):
            walk.near_block(rows, t0, k)
    xi_sum, xi_sumsq = walk.martingale_sums()
    return _RawBatch(
        endpoints=np.ascontiguousarray(walk.Y.T),
        visits=walk.visits,
        xi_sum=xi_sum,
        xi_sumsq=xi_sumsq,
        states=walk.history,
    )


def simulate_batch(plan: SimPlan) -> BatchSummary:
    """Run the plan and aggregate the batch statistics.

    Deterministic: the same plan yields a bit-identical summary regardless
    of how the work would be scheduled, because every path owns a
    positionally derived stream and reductions are fixed-shape.
    """
    p = plan.params
    if plan.steps < 1:
        raise ValueError("batch statistics need steps >= 1")
    raw = _run(plan, keep_path=False, max_elements=MAX_ELEMENTS)
    n, m = plan.steps, plan.paths
    mean_endpoint = (raw.endpoints / n).mean(axis=0)
    centred = (raw.endpoints - n * p.speed) / np.sqrt(n)    # (m, d)
    cov = np.empty((p.dim, p.dim))
    for i in range(p.dim):
        for j in range(i, p.dim):
            cov[i, j] = cov[j, i] = (centred[:, i] * centred[:, j]).mean()
    return BatchSummary(
        mean_endpoint=mean_endpoint,
        cov_scaled=cov,
        boundary_visit_counts=raw.visits,
        martingale_mean=raw.xi_sum / (n * m),
    )


def trajectory(plan: SimPlan) -> np.ndarray:
    """Full single path as an (n+1, d) integer array; requires paths = 1.

    The path is the same one that path index 0 of any batch with this seed
    follows."""
    if plan.paths != 1:
        raise ValueError(f"trajectory needs paths=1, got {plan.paths}")
    return trajectories(plan)[0]


def trajectories(plan: SimPlan) -> np.ndarray:
    """Full batch history as a (paths, steps+1, dim) integer array.

    Row j is exactly the trajectory that path index j follows in any batch
    sharing this plan's seed, so the array is reproducible path by path."""
    raw = _run(plan, keep_path=True, max_elements=MAX_ELEMENTS)
    assert raw.states is not None
    return np.swapaxes(raw.states, 0, 1)


def martingale_diagnostic(plan: SimPlan) -> MartingaleDiagnostic:
    """Sample mean and variance per coordinate of the increments
    xi_k = |X_k| - |X_{k-1}| - f(X_{k-1}) over all (path, step) pairs.

    The increments form a martingale-difference array, so the mean should
    vanish within sampling error and the variance approaches the diagonal
    of the diffusive covariance for long runs."""
    if plan.steps < 1:
        raise ValueError("martingale statistics need steps >= 1")
    raw = _run(plan, keep_path=False, max_elements=MAX_ELEMENTS)
    count = plan.steps * plan.paths
    mean = raw.xi_sum / count
    variance = raw.xi_sumsq / count - mean**2
    return MartingaleDiagnostic(mean=mean, variance=variance)


def boundary_visits(plan: SimPlan) -> dict[int, int]:
    """Histogram {visit count: number of paths} of the per-path number of
    indices 0 <= k <= n at which some coordinate is zero.

    For lam < 1 the chain leaves the coordinate hyperplanes for good after
    an almost-surely finite number of visits, so the histogram stabilises
    as n grows."""
    raw = _run(plan, keep_path=False, max_elements=MAX_ELEMENTS)
    return dict(sorted(Counter(raw.visits.tolist()).items()))
