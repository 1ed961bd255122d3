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

Each step turns its draw into a move by inverse transform over the 2d
cells [(coord 0, -1), (coord 0, +1), (coord 1, -1), ...] of the row of the
run's move table (see _table) that the source site's zero pattern selects:
the move is the number of running width totals cum[j] of the row, summed
left to right up to the next-to-last cell, that do not exceed u*D.  As the
float product u*D never decreases in the 53-bit draw m = bits >> 11,
cum[j] <= u*D holds exactly when m >= T[j], the least draw that passes,
that is when bits >= T[j] << 11: a run finds T once, and no step forms u.

The walk advances in blocks of _BLOCK steps.  A step's comparisons go
into rows 1..2d-1 of a byte table whose row j says that the move is past
cell j - 1; row 0 is preset to 1 and row 2d to 0, so the step's cell is
where consecutive rows differ and its move index is the rows' sum.  A path
whose smallest coordinate is at least the block length cannot reach a
hyperplane inside the block, so every step of it reads row 0 of the move
table: its draws for the whole block are compared at once, into one such
table per step; summed step by step the cells give its history, and in all
its position.  Every other path takes the block one step at a time,
comparing each draw with the thresholds of its current site's row; the
draws of several steps are made at once when the chunk is small.  Both
give the moves of a plain step-by-step loop, bit for bit.  A chunk of
consecutive paths, as every chunk of a block whose paths are all far or
all near is, steps views of the walk's arrays in place; any other chunk
steps a copy of its rows and writes it back.

The martingale sums are kept as integer tallies of (path, step) pairs by
table row and cell.  They are turned into floats once, at the end, grouped
by the number of zero coordinates at the source site, whether coordinate i
is zero there and the move on coordinate i.  The grouping fixes the
products count * increment that are formed, and math.fsum rounds their
exact sum once, so the summary does not depend on how paths were grouped
into blocks and is reproducible bit for bit.
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
# Elements in a chunk's draws and temporaries.  A far chunk's are (_BLOCK,
# rows), so it takes _CHUNK // _BLOCK rows; a near chunk's are (rows,) per
# step, so it takes _CHUNK rows, which amortises the numpy calls of each
# step, and draws max(1, _CHUNK // rows) steps per call.
# The move thresholds are built in blocks of _CHUNK // (2 * dim - 1) rows.
_CHUNK = 16384
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


def _row(Y, bit: np.ndarray) -> np.ndarray:
    """Table row of the sites with coordinates Y[i]: sum_i [Y_i = 0] 2^i,
    summed in uint16 (2^16 - 1 at most) and widened once to an index; the
    uint16 column bit[i] = i is built once by the caller."""
    return ((Y == 0) << bit).sum(axis=0, dtype=np.uint16).astype(np.intp)


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


def _step_bits(states: np.ndarray, t) -> np.ndarray:
    """Raw 64-bit draw number t (0-based) of every path stream; an integer
    array t of shape (k, 1) gives the (k, m) block of draws t[0..k-1]."""
    t = np.atleast_1d(np.asarray(t, dtype=np.uint64))
    return _mix64(states + (t + np.uint64(1)) * np.uint64(_GAMMA))    # wraps mod 2**64


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
        start = _check_site(self.params, self.start, orthant=True, name="start", reach=self.steps)
        object.__setattr__(self, "start", start)


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


class _Walk:
    """State of a batch in flight: positions, streams, visit counts, the
    optional history and the integer tallies behind the martingale sums.
    Stepped to the end, it is the finished batch that _run returns, with
    the final states path-major in ``endpoints``, shape (m, d).

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
        # cum[j, r]: the widths of cells 0..j of row r, summed left to right.
        # thresholds[j, r] = T << 11, T the least draw m with cum[j, r] <=
        # (m * 2**-53) * D[r]: within 3 of ceil(cum / D * 2**53), as division
        # and product each round by about one draw, so it is the window's top
        # less its passing draws.
        cum = np.cumsum(self.widths, axis=1).T[:-1]
        self.thresholds = np.empty(cum.shape, dtype=np.uint64)
        for rows in _chunks(np.arange(2**d), _CHUNK // (2 * d - 1)):
            c, big_d = cum[:, rows], self.big_d[rows]
            lo = np.maximum(np.ceil(c / big_d * 2.0**53) - 3, 0)
            passes = np.zeros(c.shape, dtype=np.int8)
            for o in range(7):
                passes += c <= (lo + o) * 2.0**-53 * big_d
            if not ((passes > 0) & ((passes < 7) | (lo == 0))).all():
                raise ArithmeticError("a move threshold lies outside its search window")
            self.thresholds[:, rows] = (lo + 7 - passes).astype(np.uint64) << np.uint64(11)
        self.moves = np.zeros(self.widths.shape, dtype=np.int64)

    def far_block(self, rows: np.ndarray, t0: int, k: int) -> None:
        """Advance rows whose smallest coordinate is at least k by k steps.

        No source site in the block lies on a hyperplane, so every step
        uses row 0 of the table, and only the block's last index can be a
        boundary visit."""
        d, c = self.dim, rows.size
        at = _slice(rows)
        # take keeps a copy coordinate-major, as Y[:, rows] would not
        Y = self.Y.take(rows, axis=1) if at is rows else self.Y[:, at]
        bits = _step_bits(self.streams[at], np.arange(t0, t0 + k)[:, None])
        # over[j, s, l]: the move of path l at step t0 + s is past cell
        # j - 1; every move is past cell -1 and none past cell 2d - 1
        over = np.empty((2 * d + 1, k, c), dtype=np.int8)
        over[0], over[-1] = 1, 0
        np.greater_equal(bits, self.thresholds[:, 0, None, None], out=over[1:-1].view(bool))
        # past[j, l]: the steps of path l whose move is past cell j - 1, at
        # most k, so summed as bytes
        past = over.sum(axis=1, dtype=np.int8)
        cells = past[:-1] - past[1:]
        if self.history is not None:
            # step[j, s, l]: path l moves through cell j at step t0 + s
            step = over[:-1] - over[1:]
            moved = np.cumsum(step[1::2] - step[0::2], axis=1, dtype=np.int8)
            self.history[t0 + 1 : t0 + k + 1, at] = (Y[:, None] + moved).transpose(1, 2, 0)
        Y += cells[1::2] - cells[0::2]
        if at is rows:
            self.Y[:, rows] = Y
        self.visits[at] += (Y == 0).any(axis=0)
        self.moves[0] += cells.sum(axis=1)

    def near_block(self, rows: np.ndarray, t0: int, k: int) -> None:
        """Advance rows by k steps one step at a time, each step with the
        table row of its source site: the step compares its draws with that
        row's thresholds into one table, as far_block does for a block.
        It draws max(1, _CHUNK // rows) steps per call: a small chunk its
        whole block, a chunk of _CHUNK rows one step, as measured fastest."""
        d, c = self.dim, rows.size
        at = _slice(rows)
        Y = self.Y.take(rows, axis=1) if at is rows else self.Y[:, at]
        streams = self.streams[at]
        group = max(1, _CHUNK // c)
        # keys[s, l]: path l's source row at step t0 + s times 2d, plus its cell
        keys = np.empty((k, c), dtype=np.intp)
        # over[j, l]: the move of path l is past cell j - 1
        over = np.empty((2 * d + 1, c), dtype=np.int8)
        over[0], over[-1] = 1, 0
        flags = over.view(bool)
        bit = np.arange(d, dtype=np.uint16)[:, None]
        row = _row(Y, bit)
        for s in range(k):
            if s % group == 0:
                bits = _step_bits(streams, np.arange(t0 + s, t0 + min(s + group, k))[:, None])
            for j, thresholds in enumerate(self.thresholds, 1):
                np.greater_equal(bits[s % group], thresholds.take(row), out=flags[j])
            step = over[:-1] - over[1:]
            Y += step[1::2] - step[0::2]
            keys[s] = row * (2 * d) + over[1:-1].sum(axis=0, dtype=np.int8)
            row = _row(Y, bit)
            if self.history is not None:
                self.history[t0 + s + 1, at] = Y.T
        if at is rows:
            self.Y[:, rows] = Y
        # a visit at index t0 + s + 1 is a source site off row 0 at the next
        # step, or a site off row 0 after the last
        self.visits[at] += (keys[1:] >= 2 * d).sum(axis=0) + (row > 0)
        self.moves += np.bincount(keys.ravel(), minlength=self.moves.size).reshape(-1, 2 * d)

    def martingale_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Sums over all (path, step) pairs of xi = delta - f and xi**2 per
        coordinate.  The tallies' classes fix the products count * xi, and
        math.fsum rounds their exact sum once, so the sums do not depend on
        how paths were grouped into blocks and chunks."""
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
        xi = np.arange(-1, 2) - (rise / big_d[:, None])[..., None]
        xi_sum = np.array([math.fsum((tally[..., i] * xi).ravel()) for i in range(d)])
        xi_sumsq = np.array([math.fsum((tally[..., i] * (xi * xi)).ravel()) for i in range(d)])
        return xi_sum, xi_sumsq


def _chunks(rows: np.ndarray, size: int):
    for lo in range(0, rows.size, size):
        yield rows[lo : lo + size]


def _slice(rows: np.ndarray) -> slice | np.ndarray:
    """The ascending rows as a slice when they are consecutive, so that a
    block steps views of the walk's arrays in place; else the rows."""
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    return slice(lo, hi) if hi - lo == rows.size else rows


def _run(plan: SimPlan, *, keep_path: bool) -> _Walk:
    p = plan.params
    d, n, m = p.dim, plan.steps, plan.paths
    if m * d > MAX_ELEMENTS:
        raise ResourceBudgetError(
            f"batch needs {m * d} state elements, budget is {MAX_ELEMENTS}"
        )
    if keep_path and (n + 1) * m * d > MAX_ELEMENTS:
        raise ResourceBudgetError(
            f"history needs {(n + 1) * m * d} elements, budget is {MAX_ELEMENTS}"
        )
    if d > _MAX_DIM:
        raise ResourceBudgetError(f"simulation supports dim <= {_MAX_DIM}, got {d}")
    walk = _Walk(plan, keep_path)
    # Rows per chunk within the budget: the largest array a block makes, a
    # far block's (d, k, c) int64 positions, holds _BLOCK * d per row.
    cap = max(1, MAX_ELEMENTS // (_BLOCK * d))
    for t0 in range(0, n, _BLOCK):
        k = min(_BLOCK, n - t0)
        far = walk.Y.min(axis=0) >= k
        for rows in _chunks(np.flatnonzero(far), min(_CHUNK // _BLOCK, cap)):
            walk.far_block(rows, t0, k)
        for rows in _chunks(np.flatnonzero(~far), min(_CHUNK, cap)):
            walk.near_block(rows, t0, k)
    walk.endpoints = np.ascontiguousarray(walk.Y.T)
    return walk


def simulate_batch(plan: SimPlan) -> BatchSummary:
    """Run the plan and aggregate the batch statistics.

    Deterministic: the same plan yields a bit-identical summary regardless
    of how the work would be scheduled, because every path owns a
    positionally derived stream and reductions are fixed-shape.
    """
    p = plan.params
    if plan.steps < 1:
        raise ValueError("batch statistics need steps >= 1")
    walk = _run(plan, keep_path=False)
    n, m = plan.steps, plan.paths
    mean_endpoint = (walk.endpoints / n).mean(axis=0)
    centred = (walk.endpoints - n * p.speed) / np.sqrt(n)    # (m, d)
    cov = np.empty((p.dim, p.dim))
    for i in range(p.dim):
        for j in range(i, p.dim):
            cov[i, j] = cov[j, i] = (centred[:, i] * centred[:, j]).mean()
    return BatchSummary(
        mean_endpoint=mean_endpoint,
        cov_scaled=cov,
        boundary_visit_counts=walk.visits,
        martingale_mean=walk.martingale_sums()[0] / (n * m),
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
    return np.swapaxes(_run(plan, keep_path=True).history, 0, 1)


def martingale_diagnostic(plan: SimPlan) -> MartingaleDiagnostic:
    """Sample mean and variance per coordinate of the increments
    xi_k = |X_k| - |X_{k-1}| - f(X_{k-1}) over all (path, step) pairs.

    The increments form a martingale-difference array, so the mean should
    vanish within sampling error and the variance approaches the diagonal
    of the diffusive covariance for long runs."""
    if plan.steps < 1:
        raise ValueError("martingale statistics need steps >= 1")
    xi_sum, xi_sumsq = _run(plan, keep_path=False).martingale_sums()
    count = plan.steps * plan.paths
    mean = xi_sum / count
    variance = xi_sumsq / count - mean**2
    return MartingaleDiagnostic(mean=mean, variance=variance)


def boundary_visits(plan: SimPlan) -> dict[int, int]:
    """Histogram {visit count: number of paths} of the per-path number of
    indices 0 <= k <= n at which some coordinate is zero.

    For lam < 1 the chain leaves the coordinate hyperplanes for good after
    an almost-surely finite number of visits, so the histogram stabilises
    as n grows."""
    visits = _run(plan, keep_path=False).visits
    return dict(sorted(Counter(visits.tolist()).items()))
