"""Exact finite-horizon computations for the biased walk.

The laws come from dynamic programming over the finite reachable set: after
n steps the walk started at x lives in a box of side O(n), so its law can be
propagated exactly (up to double rounding) with no truncation.  The three
propagators share one sweep, which differs only in its box ([0, x + n] for
the reflected chain, [x - n, x + n] for the signed and drifted walks) and
in its walk: each cell reads its move probabilities from the walk's law
at its lattice site, ``kernel._moves``, given the kept cells' sites at once.
The sweep keeps only the box cells within L1 distance n of x, in two
parity blocks ordered by distance, and step k updates only the cells
within distance k whose distance has the parity of k: the reachable set.
It gives the same bits as updating the whole box, and yields a reading
after every step, the values and their int64 lattice sites, so a reader
of many horizons needs one sweep, and a start far from the origin is
swept as a near one is.  A start whose box leaves the int64 range raises
ValueError.  Truncating would silently void the inequality checks, so none is
performed; requests whose whole box would exceed the cell budget
MAX_CELLS, read at each call, raise ResourceBudgetError instead, before
any step; a sweep holds an int32 per box cell, so the budget bounds its
memory too.

The module provides

- ``propagate``            exact law of the reflected chain on Z_+^d,
- ``propagate_full``       exact law of the signed walk on Z^d,
- ``propagate_drifted``    exact law of the free comparison walk Z,
- ``enumerate_oracle``     the signed law in exact rationals, stepped
                           site by site with its own Fraction kernel
                           (ground truth for the propagators), and
                           ``fold_to_orthant`` to compare it with
                           ``propagate``,
- ``log_mgf``              Lambda_n(s, x) = ln E_x exp(sum_i s_i |X_n^i|),
                           which reuses the law of the last few
                           (lam, x, n), so a run of tilts sweeps once,
- ``return_probability``   P(X_{2n} = 0 | X_0 = 0), and
  ``return_probability_profile`` every even horizon of it from one sweep,
- ``ballot_counts``        exact ballot-style path counts P and Q, by the
                           reflection principle,
- ``check_domination_*``   exhaustive verification that the drifted walk
                           dominates the biased walk from above, and from
                           below up to the factor n^{-d}, and
  ``domination_profile``   either check at every horizon from one sweep of
                           each walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ResourceBudgetError
from .kernel import ModelParams, State, _check_site, _finite_rows, _integer, _moves, kappa

SparseDistribution = dict[State, float]

# Cell budget for dense propagation, read at each call; d <= 3 at a few
# hundred steps fits.
MAX_CELLS = 2_000_000

# Work budget for the rational oracle (see enumerate_oracle), read at each
# call: d=1 to n=80, d=2 to n=24 and d=3 to n=12 fit, each in under a
# second at lam = 0.3, and d=1 to n=29, d=2 to n=11 and d=3 to n=6 at
# lam = 5e-324.
MAX_WORK = 1_100_000
_LAM_BITS = 55  # bit length of Fraction(0.3).denominator, the count's unit


# ---------------------------------------------------------------------------
# dense grid propagation
# ---------------------------------------------------------------------------


def _evolve(
    p: ModelParams, walk: str, start: State, n: int, box: tuple[range, ...]
) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Push a point mass at start through n steps of the walk over the box
    of sites whose coordinates along each axis are box's range for it,
    yielding a reading after each step k = 0, 1, ..., n.

    A cell moves with the probabilities of kernel._moves at its site.  A
    move out of the box is dropped, so the box must contain the n-step
    reachable set.

    Every step moves the L1 distance from the start by one, so after k
    steps the mass lies on the cells within distance k of the start whose
    distance has the parity of k.  The box cells within distance n are
    kept as two parity blocks, each ordered by distance, and step k writes
    only the first cells of block k % 2, those within distance k.  Each of
    them pulls its sources' products with the move's probability from the
    other block one move at a time, in the order axis 0 up, axis 0 down,
    axis 1 up, ...; a source outside the box or beyond distance n reads a
    product of 0.0.  So each cell gets the same nonzero products, added in
    the same order, as in a sweep of the whole box; the terms skipped are
    exact zeros, and the values are bit-identical to it.

    A reading is step k's values in level order, the start first, and the
    lattice sites of their cells, an int64 array per axis (see _site_order
    for C order).  Step k + 2 overwrites the values, so a reader takes what
    it needs before it asks for more.  The box must hold fewer than 2**31
    cells and its sites must be int64.  The tables are built at the first
    reading, not at the call.
    """
    dim = len(box)
    shape = tuple(map(len, box))
    # distances from the start over the box
    dist = 0
    for i, (axis, c) in enumerate(zip(box, start)):
        dist = dist + np.abs(np.arange(len(axis), dtype=np.int32) - (c - axis.start)).reshape(
            (-1,) + (1,) * (dim - i - 1))
    dist = dist.ravel()
    kept = np.flatnonzero(dist <= n)
    level = dist[kept]
    # parity first, then distance, then C order; the narrowest key type
    # lets numpy's stable sort use radix sort for the usual n
    key = level % 2 * (n + 1) + level
    order = np.argsort(key.astype(np.min_scalar_type(2 * n + 1)), kind="stable")
    kept, level = kept[order].astype(np.int32), level[order]
    split = kept.size - int(np.count_nonzero(level % 2))
    blocks = (slice(0, split), slice(split, kept.size))
    sizes = (split, kept.size - split)
    # reach[b][k]: the cells of block b within distance k of the start
    reach = [np.searchsorted(level[block], np.arange(n + 1), "right") for block in blocks]
    # the distances are spent: reuse their array as each cell's place in its
    # block, -1 for a cell not kept
    pos = dist
    pos.fill(-1)
    for block, size in zip(blocks, sizes):
        pos[kept[block]] = np.arange(size, dtype=np.int32)
    strides = [math.prod(shape[i + 1:]) for i in range(dim)]
    sites = tuple(np.add(kept // stride % len(axis), axis.start, dtype=np.int64)
                  for stride, axis in zip(strides, box))
    widths, big_d = _moves(p, walk, sites)
    # tables[b]: per move that some kept cell makes, each block-b cell's
    # source in the other block (-1 outside the box or beyond distance n),
    # and the move's probability at each cell of the other block.  Axis i's
    # up move comes before its down move
    tables: tuple[list, list] = ([], [])
    for i, (down, up) in enumerate(widths):
        for step, prob in ((1, up), (-1, down)):
            if not np.count_nonzero(prob):
                continue
            src = pos.take(kept - step * strides[i], mode="wrap")
            src[sites[i] == box[i][0 if step == 1 else -1]] = -1
            # the widths are the law's own arrays: divide them in place
            np.divide(prob, big_d, out=prob)
            for b in (0, 1):
                tables[b].append((src[blocks[b]], prob[blocks[1 - b]]))
    # only the tables and the cells' sites outlive the build
    del dist, pos, kept, level, key, order, widths, big_d
    P = [np.zeros(size) for size in sizes]
    P[0][0] = 1.0
    # a move's products over a block, then a last slot that stays 0.0; the
    # cells a step has not reached stay 0.0 too
    products = [np.zeros(size + 1) for size in sizes]
    cells = [tuple(c[block] for c in sites) for block in blocks]
    term = np.empty(max(sizes))
    yield P[0][:1], tuple(c[:1] for c in cells[0])
    for k in range(1, n + 1):
        b = k % 2
        m, m_src = reach[b][k], reach[1 - b][k - 1]
        src, prod, out, buf = P[1 - b][:m_src], products[1 - b], P[b][:m], term[:m]
        for t, (idx, prob) in enumerate(tables[b]):
            np.multiply(src, prob[:m_src], out=prod[:m_src])
            prod.take(idx[:m], out=buf if t else out, mode="wrap")
            if t:
                out += buf
        yield out, tuple(c[:m] for c in cells[b])


def _site_order(values, sites) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The nonzero values of a reading and their sites, in C order of the
    sites."""
    keep = values != 0.0
    sites = tuple(c[keep] for c in sites)
    # C order of the box spanned by the sites
    offsets = [c - c.min(initial=np.iinfo(np.int64).max) for c in sites]
    order = np.argsort(np.ravel_multi_index(offsets, [int(c.max(initial=0)) + 1 for c in offsets]))
    return values[keep][order], tuple(c[order] for c in sites)


def _box(
    p: ModelParams, walk: str, start: State, n: int, max_cells: float
) -> tuple[range, ...]:
    """Check the arguments of a sweep of the walk and its cell budget, and
    return its box, a range of coordinates per axis: the smallest box
    holding the reachable set, [0, start + n] for the reflected chain, else
    [start - n, start + n].  The budget counts the whole box, though only
    the cells within n of start are swept (see _evolve)."""
    if not _integer(n):
        raise ValueError(f"step count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    orthant = walk == "reflected"
    start = _check_site(p, start, orthant=orthant, name="start", reach=n)
    box = tuple(range(0 if orthant else c - n, c + n + 1) for c in start)
    shape = tuple(map(len, box))
    if math.prod(shape) > max_cells:
        raise ResourceBudgetError(f"propagation grid needs {math.prod(shape)} cells "
                                  f"(shape {shape}), budget is {max_cells}")
    return box


def _sweep(
    p: ModelParams, walk: str, start: State, n: int
) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Check the arguments of a sweep of the walk from start against the
    cell budget MAX_CELLS (see _box), then return the readings of its n
    steps (see _evolve)."""
    return _evolve(p, walk, start, n, _box(p, walk, start, n, MAX_CELLS))


def _law(p, walk, start, n) -> SparseDistribution:
    """The n-step law of the walk from start, keyed by lattice site in C
    order."""
    *_, last = _sweep(p, walk, start, n)
    values, sites = _site_order(*last)
    return dict(zip(zip(*(c.tolist() for c in sites)), values.tolist()))


def propagate(p: ModelParams, start: State, n: int) -> SparseDistribution:
    """Exact law of the reflected chain after n steps from start in Z_+^d.

    Support is contained in {y in Z_+^d : sum(y) <= sum(start) + n, with
    sum(y) = sum(start) + n (mod 2)}; total mass is 1 up to rounding.
    """
    return _law(p, "reflected", start, n)


def propagate_full(p: ModelParams, start: State, n: int) -> SparseDistribution:
    """Exact law of the signed walk on Z^d after n steps from start.

    The full chain is propagated directly: the reflected law, redistributed
    over sign patterns, is not this law in general.
    """
    return _law(p, "signed", start, n)


def propagate_drifted(p: ModelParams, start: State, n: int) -> SparseDistribution:
    """Exact law of the free comparison walk Z after n steps from start.

    Z steps +e_i with probability 1/(d(1+lam)) and -e_i with probability
    lam/(d(1+lam)) regardless of position.
    """
    return _law(p, "drifted", start, n)


# ---------------------------------------------------------------------------
# rational oracle
# ---------------------------------------------------------------------------


def fold_to_orthant(dist: dict) -> dict:
    """Push a distribution on Z^d to Z_+^d through coordinate-wise absolute
    value.  Works for float and Fraction masses alike."""
    out: dict = {}
    for v, mass in dist.items():
        y = tuple(abs(c) for c in v)
        out[y] = out.get(y, 0) + mass
    return out


def _rational_moves(lam: Fraction, v: State) -> list[tuple[State, Fraction]]:
    """The signed walk's moves out of v and their probabilities, in exact
    rationals; coded apart from kernel._moves, which is pinned to it."""
    d = len(v)
    zeros = kappa(v)
    big_d = d + zeros + lam * (d - zeros)
    moves = []
    for i in range(d):
        for step in (-1, 1):
            u = v[:i] + (v[i] + step,) + v[i + 1 :]
            prob = (lam if abs(u[i]) < abs(v[i]) else 1) / big_d
            if prob:
                moves.append((u, prob))
    return moves


def enumerate_oracle(p: ModelParams, start: State, n: int) -> dict[State, Fraction]:
    """Exact n-step law of the signed walk in rational arithmetic.

    Pushes each site's mass through one step at a time with the oracle's
    own Fraction kernel.  Fraction sums are exact, so this gives the same
    law as summing the products of one-step probabilities path by path.
    The bias enters as Fraction(p.lam) - the exact rational value of the
    stored double - so a comparison against the floating propagators
    measures arithmetic rounding only, with no parameter-conversion gap.

    Masses are Fractions and sum to exactly 1.  The budget bounds the
    work: the sites within L1 distance k of start, summed over k <= n,
    times 2d moves per site, each writing d coordinates and a rational of
    up to n steps' digits.  A step's digits grow with the bit length b of
    the denominator of Fraction(lam), 55 at lam = 0.3 and 1075 at 5e-324,
    so the count is the sites times 2d (d + n max(b, 55) / 55), rounded
    down: a lam with a shorter rational counts as 0.3 does.  It is checked
    against MAX_WORK at the call, before any step.
    """
    # the arguments of a signed sweep, with no cell budget
    _box(p, "signed", start, n, math.inf)
    d, lam = p.dim, Fraction(p.lam)
    sites = sum(2**i * math.comb(d, i) * math.comb(n + 1, i + 1) for i in range(d + 1))
    bits = max(lam.denominator.bit_length(), _LAM_BITS)
    work = sites * 2 * d * (d * _LAM_BITS + n * bits) // _LAM_BITS
    if work > MAX_WORK:
        raise ResourceBudgetError(f"oracle would do {work} units of work "
                                  f"({sites} sites), budget is {MAX_WORK}")
    law = {tuple(start): Fraction(1)}
    for _ in range(n):
        step: dict[State, Fraction] = {}
        for v, mass in law.items():
            for u, prob in _rational_moves(lam, v):
                step[u] = step.get(u, 0) + mass * prob
        law = step
    return law


# ---------------------------------------------------------------------------
# moment generating function and return probabilities
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum(exp(a)) over the last axis of a float array, one value per
    row.  The m maximal terms of a row are pulled out of its shifted sum
    s, and the value is log1p(s / m) + log(m) + a_max; where that is not
    finite (an infinite or NaN term, or every term -inf) it is
    log(sum(exp(a))).  The steps are written out here, not taken from a
    library whose log-sum-exp has changed between versions, so that the
    mgf artifacts do not depend on what is installed.  Never warns."""
    with np.errstate(all="ignore"):
        a_max = a.max(-1)
        top = a == a_max[..., None]
        m = top.sum(-1)
        s = np.exp(np.where(top, -np.inf, a) - a_max[..., None]).sum(-1) / m
        value = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(value)
        if not finite.all():
            value = np.where(finite, value, np.log(np.exp(a).sum(-1)))
    return value


@lru_cache(maxsize=4)
def _log_law(
    p: ModelParams, start: State, n: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The tilt-independent part of log_mgf: ln of the nonzero masses of
    the n-step reflected law from start, in C order of their sites, and
    those sites, an int64 array per axis.  Kept for the last few (p, start,
    n), so that a run of tilts sweeps once.  The arrays are read-only."""
    *_, last = _sweep(p, "reflected", start, n)
    values, sites = _site_order(*last)
    logs = np.log(values)
    for a in (logs, *sites):
        a.flags.writeable = False
    return logs, sites


def log_mgf(p: ModelParams, start: State, n: int, s) -> float:
    """Lambda_n(s, start) = ln E_start[exp(sum_i s_i |X_n^i|)].

    Computed from the exact reflected law with log-space accumulation, so
    large positive s at large n cannot overflow.  The law of the last few
    (p, start, n) is kept, so further tilts at them cost no sweep.
    """
    s = _finite_rows("s", [s], p.dim)[0]
    # checked before the lookup, so a kept law never escapes a smaller budget
    _box(p, "reflected", start, n, MAX_CELLS)
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
    value = float(_logsumexp(terms))
    if not math.isfinite(value):
        raise OverflowError(f"Lambda_{n}(s) for s={s.tolist()} is beyond double range")
    return value


def return_probability(p: ModelParams, horizon: int) -> float:
    """P(X_horizon = 0 | X_0 = 0) for an even horizon.

    The walk has period two, so only even horizons are meaningful; odd ones
    raise ValueError.
    """
    # _sweep rejects a horizon that is not an integer
    if _integer(horizon) and (horizon < 0 or horizon % 2):
        raise ValueError(f"horizon must be even and nonnegative, got {horizon}")
    *_, (values, _) = _sweep(p, "reflected", (0,) * p.dim, horizon)
    # a reading starts with the start's value
    return float(values[0])


def return_probability_profile(p: ModelParams, max_horizon: int) -> list[tuple[int, float]]:
    """All pairs (2m, P(X_{2m} = 0 | X_0 = 0)) with 2m <= max_horizon,
    from a single propagation sweep."""
    readings = _sweep(p, "reflected", (0,) * p.dim, max_horizon)
    # a reading starts with the start's value
    return [(k, float(values[0])) for k, (values, _) in enumerate(readings) if k % 2 == 0]


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


def ballot_counts(n: int, alpha: int, beta: int) -> BallotCount:
    """Exact path counts P (all alpha -> beta paths) and Q (those staying at
    or above min(alpha, beta)).

    Q reduces to counting nonnegative-floor paths 0 -> g = |beta - alpha|:
    translating by -min(alpha, beta) puts the floor at zero, and when the
    path runs downhill, reversing it swaps the endpoints without touching
    the floor constraint.  By the reflection principle the paths 0 -> g
    that go below 0 are as many as all paths -2 -> g, so with
    k = (n + g) / 2 up-steps the count is C(n, k) - C(n, k + 1).
    """
    if not all(_integer(x) for x in (n, alpha, beta)):
        raise ValueError(f"n, alpha and beta must be integers, got {(n, alpha, beta)}")
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    gap = abs(beta - alpha)
    if gap > n or (n - gap) % 2:
        return BallotCount(n, alpha, beta, 0, 0)
    k = (n + gap) // 2
    total = math.comb(n, k)
    return BallotCount(n, alpha, beta, total, total - math.comb(n, k + 1))


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


def _dominations(
    p: ModelParams, mode: str, start: State | None, first: int, n: int
) -> Iterator[DominationReport]:
    """The reports of the mode's check at horizons first..n, read off one
    signed and one drifted sweep from start to n.  The arguments and the
    budget are checked at the call."""
    if mode not in ("upper", "lower"):
        raise ValueError(f"mode must be 'upper' or 'lower', got {mode!r}")
    if mode == "upper" and start is not None:
        raise ValueError("start applies only to the lower bound")
    if start is None:
        start = (0 if mode == "upper" else 1,) * p.dim
    if mode == "lower" and any(c < 1 for c in _check_site(p, start, orthant=False, name="start")):
        raise ValueError(f"start must have every coordinate >= 1, got {start}")
    if mode == "lower" and _integer(first) and first < 1:
        raise ValueError(f"need at least one step, got n={first}")
    signed = _sweep(p, "signed", start, n)
    drifted = _sweep(p, "drifted", start, n)
    return (_domination_report(p, mode, k, px, pz, sites)
            for k, ((px, sites), (pz, _)) in enumerate(zip(signed, drifted)) if k >= first)


def _domination_report(p, mode, n, px, pz, sites) -> DominationReport:
    """The report at horizon n: px - scale * pz, scale 1 for the upper bound
    and n^(-d) for the lower, over the orthant sites where the signed
    reading px or the drifted reading pz is nonzero.  The sweeps share their
    box, so their level-ordered sites line up one for one."""
    keep = (px != 0.0) | (pz != 0.0)
    for c in sites:
        keep &= c >= 0
    scale = 1.0 if mode == "upper" else float(n) ** (-p.dim)
    diff = px[keep] - scale * pz[keep]
    worst = ({"max_violation": float(diff.max())} if mode == "upper"
             else {"min_slack": float(diff.min())})
    return DominationReport(mode, n, int(np.count_nonzero(keep)), **worst)


def domination_profile(
    p: ModelParams,
    mode: str,
    n_max: int,
    *,
    start: State | None = None,
) -> list[DominationReport]:
    """The reports of check_domination_upper (mode 'upper', from the
    origin) or check_domination_lower (mode 'lower', from start, all ones
    by default) for n = 1..n_max, from a single signed and a single drifted
    sweep.  The budget counts the n_max box."""
    return list(_dominations(p, mode, start, 1, n_max))


def check_domination_upper(p: ModelParams, n: int) -> DominationReport:
    """Verify P_0(X_n = k) <= P(Z_n = k | Z_0 = 0) for every k in Z_+^d.

    Scans the union of both supports restricted to the orthant and reports
    the largest difference (mathematically <= 0)."""
    return next(_dominations(p, "upper", None, n, n))


def check_domination_lower(p: ModelParams, z: State, n: int) -> DominationReport:
    """Verify P_z(X_n = k) >= n^(-d) P(Z_n = k | Z_0 = z) for every k in
    Z_+^d, for a start z with every coordinate >= 1 (off the boundary)."""
    return next(_dominations(p, "lower", z, n, n))
