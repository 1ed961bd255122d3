"""Tests for the deterministic Monte Carlo engine."""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasedwalk import ModelParams, ResourceBudgetError, reflected_kernel, simulate
from biasedwalk.exact import propagate
from biasedwalk.kernel import _moves
from biasedwalk.simulate import (
    SimPlan,
    boundary_visits,
    martingale_diagnostic,
    simulate_batch,
    trajectories,
    trajectory,
    _BLOCK,
    _CHUNK,
    _Walk,
    _path_states,
    _row,
    _run,
    _slice,
    _step_bits,
    _table,
)


def _step_uniforms(states: np.ndarray, t) -> np.ndarray:
    """Uniform [0,1) draw number t (0-based) for every path stream: the
    53 high bits of the raw draw, as the float inverse transform of
    _reference_run reads them."""
    return (_step_bits(states, t) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _reference_run(plan: SimPlan, *, keep_path: bool, max_elements: int) -> SimpleNamespace:
    """The original one-step-at-a-time loop over all paths, kept as the
    reference that the block-stepping ``_run`` must reproduce."""
    p = plan.params
    d, n, m = p.dim, plan.steps, plan.paths
    if m * d > max_elements:
        raise ResourceBudgetError(
            f"batch needs {m * d} state elements, budget is {max_elements}"
        )
    lam = p.lam
    Y = np.tile(np.asarray(plan.start, dtype=np.int64), (m, 1))
    rows = np.arange(m)
    streams = _path_states(plan.seed, m)

    visits = (Y == 0).any(axis=1).astype(np.int64)
    xi_sum = np.zeros(d)
    xi_sumsq = np.zeros(d)
    weights = np.empty((m, 2 * d))
    history = None
    if keep_path:
        if (n + 1) * m * d > max_elements:
            raise ResourceBudgetError(
                f"history needs {(n + 1) * m * d} elements, budget is {max_elements}"
            )
        history = np.empty((n + 1, m, d), dtype=np.int64)
        history[0] = Y

    for t in range(n):
        zero = Y == 0
        kap = zero.sum(axis=1)
        site_weight = d + kap + lam * (d - kap)          # (m,)
        # inverse-transform cells: even slot (coord i, -1), odd (coord i, +1)
        weights[:, 0::2] = np.where(zero, 0.0, lam)
        weights[:, 1::2] = np.where(zero, 2.0, 1.0)
        cum = np.cumsum(weights, axis=1)
        u = _step_uniforms(streams, t) * site_weight
        idx = (cum[:, :-1] <= u[:, None]).sum(axis=1)
        coord = idx >> 1
        sign = ((idx & 1) << 1) - 1                      # -1 even, +1 odd
        # martingale increment xi = displacement - drift at the source site
        xi = np.where(zero, 2.0, 1.0 - lam) / (-site_weight[:, None])
        xi[rows, coord] += sign
        xi_sum += xi.sum(axis=0)
        xi_sumsq += (xi * xi).sum(axis=0)
        Y[rows, coord] += sign
        visits += (Y == 0).any(axis=1)
        if history is not None:
            history[t + 1] = Y

    return SimpleNamespace(
        endpoints=Y, visits=visits, xi_sum=xi_sum, xi_sumsq=xi_sumsq, history=history
    )



def _reference_martingale_sums(walk: _Walk) -> tuple[np.ndarray, np.ndarray]:
    """The grouped loop the martingale sums were first taken with: one
    product count * xi per nonempty (kap, z, move) class of each coordinate,
    in class order, summed with math.fsum."""
    d = walk.dim
    zero = (np.arange(len(walk.moves))[:, None] >> np.arange(d)) & 1
    down, up = walk.moves[:, 0::2], walk.moves[:, 1::2]
    stay = walk.moves.sum(axis=1)[:, None] - down - up
    tally = np.zeros((d + 1, 2, 3, d), dtype=np.int64)
    for j, count in enumerate((down, stay, up)):
        np.add.at(tally, (zero.sum(axis=1, keepdims=True), zero, j, np.arange(d)), count)
    rise = walk.widths[[0, -1], 1] - walk.widths[[0, -1], 0]
    big_d = walk.big_d[(1 << np.arange(d + 1)) - 1]
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

@st.composite
def _plans(draw):
    d = draw(st.integers(1, 5))
    lam = draw(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        )
    )
    # smallest coordinate on a hyperplane or next to the block length
    low = draw(st.sampled_from([0, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
    start = draw(st.lists(st.integers(low, low + 3), min_size=d, max_size=d))
    start[draw(st.integers(0, d - 1))] = low
    steps = draw(st.integers(0, 3 * _BLOCK + 5))
    paths = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**64 - 1))
    return SimPlan(ModelParams(d, lam), tuple(start), steps, paths, seed)


@pytest.mark.parametrize("keep_path", [False, True])
@settings(max_examples=120, deadline=None)
@given(plan=_plans(), tight=st.booleans(), chunk=st.sampled_from([_CHUNK, 2 * _BLOCK, _BLOCK]))
def test_block_stepping_matches_reference_loop(keep_path, plan, tight, chunk):
    # A tight budget splits the paths into many chunks per block, but once
    # a history of _BLOCK - 1 or more steps is kept it admits every path;
    # a small _CHUNK splits them then too.  Hypothesis runs every example
    # in one call of the test, so both are patched per example rather than
    # with monkeypatch.
    d, n, m = plan.params.dim, plan.steps, plan.paths
    budget = (n + 1) * m * d if keep_path else m * d
    with mock.patch.object(simulate, "MAX_ELEMENTS", budget if tight else 10**8), \
            mock.patch.object(simulate, "_CHUNK", chunk):
        fast = _run(plan, keep_path=keep_path)
    ref = _reference_run(plan, keep_path=keep_path, max_elements=10**8)
    assert np.array_equal(fast.endpoints, ref.endpoints)
    assert np.array_equal(fast.visits, ref.visits)
    if keep_path:
        assert np.array_equal(fast.history, ref.history)
    # The martingale sums are taken in another order, so they may differ
    # by rounding, at most a few ulps of 1 per increment.
    count = n * m
    xi_sum, xi_sumsq = fast.martingale_sums()
    assert np.all(np.abs(xi_sum - ref.xi_sum) <= 1e-13 * count)
    assert np.all(np.abs(xi_sumsq - ref.xi_sumsq) <= 1e-13 * count)


@pytest.mark.parametrize("chunk", [_CHUNK, _BLOCK])
@pytest.mark.parametrize("plan, far_frac", [
    (SimPlan(ModelParams(2, 0.5), (0, 0), 300, 30), 0.6),           # the CLI dump
    (SimPlan(ModelParams(3, 0.5), (40, 40, 40), 120, 100, seed=7), 1.0),
], ids=["dump", "far-start"])
def test_far_heavy_history_matches_reference_loop(plan, far_frac, chunk, monkeypatch):
    # Most path-steps run in far blocks, 21 and 10 blocks in a row, where
    # the drawn plans above have four blocks at most.  The budget is the
    # history's size; it cannot split a block's rows once more than
    # _BLOCK - 1 steps are kept, so _CHUNK = _BLOCK does: a far chunk then
    # holds 1 row and a near one 12
    d, n, m = plan.params.dim, plan.steps, plan.paths
    far = []
    monkeypatch.setattr(simulate._Walk, "far_block", _recorder(simulate._Walk.far_block, far))
    monkeypatch.setattr(simulate, "MAX_ELEMENTS", (n + 1) * m * d)
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    fast = _run(plan, keep_path=True)
    ref = _reference_run(plan, keep_path=True, max_elements=10**8)
    assert np.array_equal(fast.history, ref.history)
    assert np.array_equal(fast.visits, ref.visits)
    assert sum(far) * _BLOCK >= far_frac * n * m


def _reference_moves(states: np.ndarray, d: int) -> np.ndarray:
    """Move tallies rebuilt from a (n + 1, m, d) history: the table row of
    each step's source site and the cell of its move, 2i for a step down
    on the coordinate i that changed and 2i + 1 for a step up."""
    src, delta = states[:-1].reshape(-1, d), np.diff(states, axis=0).reshape(-1, d)
    coord = np.abs(delta).argmax(axis=1)
    cell = 2 * coord + (delta[np.arange(len(delta)), coord] > 0)
    keys = _row(src.T, np.arange(d, dtype=np.uint16)[:, None]) * (2 * d) + cell
    return np.bincount(keys, minlength=2**d * 2 * d).reshape(-1, 2 * d)


def _run_tallies(plan: SimPlan, keep_path: bool) -> tuple[_Walk, list]:
    """_run's walk, with its move tallies, and the near chunks' sizes."""
    near = []
    with mock.patch.object(_Walk, "near_block", _recorder(_Walk.near_block, near)):
        raw = _run(plan, keep_path=keep_path)
    return raw, near


@pytest.mark.parametrize("chunk", [_CHUNK, _BLOCK])
@pytest.mark.parametrize("plan", [
    SimPlan(ModelParams(1, 0.9), (0,), 60, 300, seed=3),
    SimPlan(ModelParams(3, 0.9), (0, 1, 0), 60, 300, seed=4),
    SimPlan(ModelParams(5, 0.95), (0, 0, 2, 0, 1), 60, 300, seed=5),
], ids=["d1", "d3", "d5"])
def test_move_tallies_equal_the_reference_history(plan, chunk, monkeypatch):
    # the martingale sums are compared above only to within rounding; the
    # tallies behind them are pinned exactly, on plans whose path-steps run
    # almost all in near blocks
    d, n, m = plan.params.dim, plan.steps, plan.paths
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    ref = _reference_run(plan, keep_path=True, max_elements=10**8)
    want = _reference_moves(ref.history, d)
    for keep_path in (False, True):
        raw, near = _run_tallies(plan, keep_path)
        assert sum(near) * _BLOCK >= 0.9 * n * m
        assert raw.moves.dtype == np.int64 and np.array_equal(raw.moves, want)


@pytest.mark.parametrize("plan", [
    SimPlan(ModelParams(8, 0.3), (0,) * 8, 30, 200, seed=8),
    SimPlan(ModelParams(9, 0.9), (0, 1, 0, 2, 0, 0, 3, 0, 1), 30, 200, seed=9),
    SimPlan(ModelParams(16, 0.5), (0,) * 16, 30, 200, seed=16),
], ids=["d8", "d9", "d16"])
def test_near_steps_match_reference_loop_in_high_dimension(plan):
    # table rows past 255 do not fit a byte; the drawn plans stop at d = 5
    d = plan.params.dim
    raw, _ = _run_tallies(plan, keep_path=True)
    ref = _reference_run(plan, keep_path=True, max_elements=10**8)
    assert np.array_equal(raw.history, ref.history)
    assert np.array_equal(raw.visits, ref.visits)
    assert np.array_equal(raw.endpoints, ref.endpoints)
    assert np.array_equal(raw.moves, _reference_moves(ref.history, d))


@pytest.mark.parametrize("chunk, paths", [(24, 5), (24, 7), (24, 3), (24, 24), (_CHUNK, 100)],
                         ids=["group4", "group3", "group8", "group1", "whole-block"])
def test_grouped_draws_match_reference_loop(chunk, paths, monkeypatch):
    # near chunks draw max(1, _CHUNK // rows) steps per call: groups that
    # split a block of 12 steps evenly or not, a group of one step, and a
    # group longer than the block; the last block has 5 steps
    plan = SimPlan(ModelParams(2, 0.9), (0, 0), 3 * _BLOCK + 5, paths, seed=paths)
    group = max(1, chunk // paths)
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    ref = _reference_run(plan, keep_path=True, max_elements=10**8)
    for keep_path in (False, True):
        draws = []
        with mock.patch.object(simulate, "_step_bits", _draws(draws)):
            raw, near = _run_tallies(plan, keep_path)
        # every path starts near, so the first block's chunk is all of them
        assert near[0] == paths and draws[0] == (min(group, _BLOCK), paths)
        assert all(rows * cols <= chunk for rows, cols in draws)
        assert np.array_equal(raw.endpoints, ref.endpoints)
        assert np.array_equal(raw.visits, ref.visits)
        assert np.array_equal(raw.moves, _reference_moves(ref.history, 2))
        if keep_path:
            assert np.array_equal(raw.history, ref.history)


def _chunk_rows(step, seen):
    def record(self, rows, t0, k):
        seen.append(rows.copy())
        step(self, rows, t0, k)
    return record


@pytest.mark.parametrize("plan, chunk", [
    (SimPlan(ModelParams(3, 0.5), (40, 40, 40), 60, 50, seed=7), _BLOCK),
    (SimPlan(ModelParams(3, 0.5), (40, 40, 40), 60, 50, seed=7), 2 * _BLOCK),
    (SimPlan(ModelParams(2, 0.9), (0, 0), 2 * _BLOCK, 100, seed=8), _CHUNK),
    (SimPlan(ModelParams(2, 0.5), (_BLOCK, _BLOCK), 4 * _BLOCK, 300, seed=9), _CHUNK),
], ids=["far-1-row", "far-2-rows", "near-origin", "mixed"])
def test_consecutive_and_scattered_chunks_match_reference_loop(plan, chunk, monkeypatch):
    # consecutive rows are stepped through views of the walk's arrays and
    # others through copies scattered back: all-far blocks split into
    # many consecutive chunks, one all-near chunk, and mixed blocks whose
    # chunks skip rows
    d, m = plan.params.dim, plan.paths
    far, near = [], []
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    monkeypatch.setattr(_Walk, "far_block", _chunk_rows(_Walk.far_block, far))
    monkeypatch.setattr(_Walk, "near_block", _chunk_rows(_Walk.near_block, near))
    ref = _reference_run(plan, keep_path=True, max_elements=10**8)
    for keep_path in (False, True):
        far.clear(), near.clear()
        raw, _ = _run_tallies(plan, keep_path)
        assert np.array_equal(raw.endpoints, ref.endpoints)
        assert np.array_equal(raw.visits, ref.visits)
        assert np.array_equal(raw.moves, _reference_moves(ref.history, d))
        if keep_path:
            assert np.array_equal(raw.history, ref.history)
    far_views, near_views = ([isinstance(_slice(rows), slice) for rows in seen]
                             for seen in (far, near))
    if plan.start[0] == 40:
        assert not near and len(far) == plan.steps // _BLOCK * -(-m // (chunk // _BLOCK))
        assert all(far_views)
    elif plan.start[0] == 0:
        assert near[0].tolist() == list(range(m)) and near_views[0]
    else:
        assert not all(far_views) and not all(near_views)


def test_rows_are_a_slice_only_when_consecutive():
    assert _slice(np.arange(3, 7)) == slice(3, 7)
    assert _slice(np.array([5])) == slice(5, 6)
    rows = np.array([1, 2, 4])
    assert _slice(rows) is rows


def test_row_of_the_origin_at_the_largest_dimension():
    d = simulate._MAX_DIM
    bit = np.arange(d, dtype=np.uint16)[:, None]
    row = _row(np.zeros((d, 3), dtype=np.int64), bit)
    assert row.dtype == np.intp and row.tolist() == [2**16 - 1] * 3
    assert _row(np.eye(d, dtype=np.int64)[:, :2], bit).tolist() == [2**16 - 2, 2**16 - 3]


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-300, None, 0.999999])
def test_martingale_sums_equal_the_grouped_loop_bit_for_bit(d, lam):
    # random move tallies, sparse and up to 10**12 per cell; None draws lam
    # from U(0, 1)
    rng = np.random.default_rng([d, 0 if lam is None else 1])
    for _ in range(20):
        plan = SimPlan(ModelParams(d, rng.uniform() if lam is None else lam), (0,) * d, 0, 1)
        walk = _Walk(plan, keep_path=False)
        scale = 10 ** rng.integers(0, 13, size=walk.moves.shape)
        walk.moves = rng.integers(0, scale + 1) * (rng.uniform(size=scale.shape) < 0.7)
        got, want = walk.martingale_sums(), _reference_martingale_sums(walk)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("lam", [0.0, 5e-324, 0.3, 1.0 - 2.0**-53])
def test_move_table_rows_are_the_law_at_their_sites(d, lam):
    # row r of the simulator's table holds the reflected law, bit for bit,
    # at a site whose zero pattern is r: each coordinate 0 where bit i of r
    # is set and 1 or 7 elsewhere, the row its site is read at
    p = ModelParams(d, lam)
    widths, big_d = _table(p)
    assert widths.shape == (2**d, 2 * d) and big_d.shape == (2**d,)
    bit = np.arange(d, dtype=np.uint16)[:, None]
    for r in range(2**d):
        for far in (1, 7):
            site = tuple(0 if r >> i & 1 else far for i in range(d))
            assert _row(np.array(site)[:, None], bit).tolist() == [r]
            law, law_d = _moves(p, "reflected", site)
            assert big_d[r] == law_d
            assert widths[r].tolist() == [float(w) for pair in law for w in pair]


@pytest.mark.parametrize("d", range(1, 9))
def test_move_thresholds_are_the_least_passing_draw(d):
    # thresholds[j, r] = T << 11, where T is the least 53-bit draw m whose
    # float uniform passes the inverse-transform test cum <= (m * 2**-53) * D
    # of cell j of row r; checked with plain Python floats at T and T - 1
    rng = np.random.default_rng(d)
    lams = [0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, *rng.uniform(size=4),
            *(10.0 ** rng.uniform(-320, -1, size=4))]
    for lam in lams:
        walk = _Walk(SimPlan(ModelParams(d, float(lam)), (0,) * d, 0, 1), keep_path=False)
        assert walk.thresholds.shape == (2 * d - 1, 2**d)
        assert walk.thresholds.dtype == np.uint64
        for r, (widths, big_d) in enumerate(zip(walk.widths.tolist(), walk.big_d.tolist())):
            cum = 0.0
            for j in range(2 * d - 1):
                cum += widths[j]
                bits = int(walk.thresholds[j, r])
                m = bits >> 11
                assert m << 11 == bits and m < 2**53
                assert cum <= (m * 2.0**-53) * big_d
                assert m == 0 or not cum <= ((m - 1) * 2.0**-53) * big_d


def test_a_threshold_outside_its_search_window_is_refused(monkeypatch):
    # NaN widths pass no draw of the window, so no threshold can be set
    widths, big_d = _table(ModelParams(2, 0.5))
    monkeypatch.setattr(simulate, "_table", lambda p: (np.full_like(widths, np.nan), big_d))
    with pytest.raises(ArithmeticError, match="^a move threshold lies outside its search window$"):
        _Walk(SimPlan(ModelParams(2, 0.5), (0, 0), 1, 1), keep_path=False)


def test_move_thresholds_build_at_the_largest_dimension():
    # the table is built in many blocks of rows here; the same test as
    # above, in numpy doubles, holds at every entry
    d = simulate._MAX_DIM
    walk = _Walk(SimPlan(ModelParams(d, 0.5), (0,) * d, 0, 1), keep_path=False)
    assert walk.thresholds.shape == (2 * d - 1, 2**d)
    cum = np.cumsum(walk.widths, axis=1).T[:-1]
    m = (walk.thresholds >> np.uint64(11)).astype(np.float64)
    assert (cum <= m * 2.0**-53 * walk.big_d).all()
    assert ((m == 0) | ~(cum <= (m - 1) * 2.0**-53 * walk.big_d)).all()
    # a simulation from the origin runs every step on the thresholds
    simulate_batch(SimPlan(ModelParams(d, 0.5), (0,) * d, 5, 10, seed=1))


def test_deterministic_outward_walk_is_exact():
    # d=1, lam=0: the walk marches right one step per tick, so every
    # statistic collapses to its deterministic value.
    plan = SimPlan(ModelParams(1, 0.0), (0,), 100, 10, seed=7)
    s = simulate_batch(plan)
    assert s.mean_endpoint[0] == 1.0
    assert s.cov_scaled[0, 0] == 0.0
    assert s.martingale_mean[0] == 0.0
    assert (s.boundary_visit_counts == 1).all()
    diag = martingale_diagnostic(plan)
    assert diag.mean[0] == 0.0
    assert diag.variance[0] == 0.0


def test_trajectory_trivial_cases():
    assert trajectory(SimPlan(ModelParams(2, 0.5), (3, 1), 0, 1, seed=0)).tolist() == [[3, 1]]
    assert trajectory(SimPlan(ModelParams(1, 0.0), (0,), 3, 1, seed=9)).ravel().tolist() == [0, 1, 2, 3]


def test_trajectory_replay_bit_identical():
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 200, 1, seed=123)
    assert np.array_equal(trajectory(plan), trajectory(plan))


def test_trajectory_steps_are_valid_kernel_moves():
    for lam in (0.0, 0.3, 0.7):
        p = ModelParams(2, lam)
        states = trajectory(SimPlan(p, (0, 0), 300, 1, seed=5))
        for prev, cur in zip(states[:-1], states[1:]):
            dist = reflected_kernel(p, tuple(int(c) for c in prev))
            assert dist.get(tuple(int(c) for c in cur), 0.0) > 0.0


def test_batch_determinism():
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 50, 20, seed=3)
    a, b = simulate_batch(plan), simulate_batch(plan)
    assert np.array_equal(a.mean_endpoint, b.mean_endpoint)
    assert np.array_equal(a.cov_scaled, b.cov_scaled)
    assert np.array_equal(a.boundary_visit_counts, b.boundary_visit_counts)
    assert np.array_equal(a.martingale_mean, b.martingale_mean)


def test_single_path_batch_matches_trajectory():
    plan = SimPlan(ModelParams(2, 0.25), (1, 0), 400, 1, seed=77)
    states = trajectory(plan)
    s = simulate_batch(plan)
    np.testing.assert_allclose(s.mean_endpoint, states[-1] / plan.steps, atol=1e-15)


def test_stream_golden_values():
    # Freezes the documented counter-based scheme; any change to the mixing
    # breaks replay of published runs.
    st = _path_states(42, 3)
    assert [int(v) for v in st] == [
        0x97EA87F7E45C00A5,
        0xDB0DFA909F59B2FE,
        0xC0456DEAE48313A0,
    ]
    # the raw draws the simulator compares with its move thresholds
    assert [int(v) for v in _step_bits(st, 0)] == [
        0x9D591BB7266B13F3,
        0x1AD0370E286A4648,
        0x022F07065D49230A,
    ]
    assert [int(v) for v in _step_bits(st, 1)] == [
        0x733A550E28BD9590,
        0x853902B2DAA6187A,
        0x514472E6D2A5E8D5,
    ]
    np.testing.assert_allclose(
        _step_uniforms(st, 0),
        [0.6146409341949204, 0.10473960967684892, 0.008530081800277589],
        rtol=0,
        atol=0,
    )
    np.testing.assert_allclose(
        _step_uniforms(st, 1),
        [0.45010882945711317, 0.5204011618285665, 0.31745069632838574],
        rtol=0,
        atol=0,
    )


def test_stream_independent_of_batch_size():
    a = _path_states(9, 5)
    b = _path_states(9, 2)
    assert np.array_equal(a[:2], b)


def test_speed_law_small_scale():
    for d, lam in [(1, 0.25), (2, 0.5), (3, 0.75)]:
        p = ModelParams(d, lam)
        s = simulate_batch(SimPlan(p, (0,) * d, 2000, 400, seed=13))
        np.testing.assert_allclose(s.mean_endpoint, p.speed, atol=0.01)


def test_martingale_mean_within_hoeffding_band():
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 1000, 300, seed=21)
    diag = martingale_diagnostic(plan)
    bound = 4.0 / math.sqrt(plan.steps * plan.paths)
    assert (np.abs(diag.mean) <= bound).all()


def test_martingale_variance_approaches_sigma_d1():
    # lam=0.25: limiting per-coordinate variance is rho^2 = 0.64
    diag = martingale_diagnostic(SimPlan(ModelParams(1, 0.25), (0,), 2000, 200, seed=5))
    assert abs(diag.variance[0] - 0.64) <= 0.01


def test_boundary_visits_start_on_boundary_counts_time_zero():
    hist = boundary_visits(SimPlan(ModelParams(2, 0.5), (0, 0), 500, 300, seed=2))
    assert min(hist) >= 1
    assert sum(hist.values()) == 300


def test_boundary_visits_zero_possible_off_boundary():
    # lam=0 never decreases a positive coordinate: no path ever returns
    hist = boundary_visits(SimPlan(ModelParams(2, 0.0), (1, 1), 200, 50, seed=3))
    assert hist == {0: 50}


def test_boundary_visits_stabilise_in_horizon():
    # Same seeds, doubled horizon: visit counts are almost surely finite,
    # and at this scale no path adds a visit after step 2000.
    a = simulate_batch(SimPlan(ModelParams(2, 0.5), (0, 0), 2000, 2000, seed=11))
    b = simulate_batch(SimPlan(ModelParams(2, 0.5), (0, 0), 4000, 2000, seed=11))
    same = (a.boundary_visit_counts == b.boundary_visit_counts).mean()
    assert same >= 0.99


def test_endpoint_distribution_matches_exact_law():
    # Total-variation distance between the empirical endpoint law and the
    # exact propagated law; expectation ~0.006 at this scale.
    p = ModelParams(2, 0.3)
    law = propagate(p, (0, 0), 6)
    m = 50_000
    plan = SimPlan(p, (0, 0), 6, m, seed=4)
    ends = Counter()
    # endpoints via the public API: batch of one-path trajectories would be
    # slow, so read the endpoint statistics through boundary-free summary
    raw = _run(plan, keep_path=False)
    for row in map(tuple, raw.endpoints.tolist()):
        ends[row] += 1
    support = set(law) | set(ends)
    tv = 0.5 * sum(abs(ends.get(k, 0) / m - law.get(k, 0.0)) for k in support)
    assert tv <= 0.02


def test_cov_scaled_symmetry():
    s = simulate_batch(SimPlan(ModelParams(3, 0.4), (0, 0, 0), 500, 200, seed=8))
    assert np.array_equal(s.cov_scaled, s.cov_scaled.T)


def test_resource_budget():
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 10, 10**9, seed=0)
    with pytest.raises(ResourceBudgetError):
        simulate_batch(plan)


def test_plan_validation():
    with pytest.raises(ValueError):
        SimPlan(ModelParams(2, 0.5), (0,), 10, 1)
    with pytest.raises(ValueError):
        SimPlan(ModelParams(2, 0.5), (0, -1), 10, 1)
    with pytest.raises(ValueError):
        SimPlan(ModelParams(2, 0.5), (0, 0), -1, 1)
    with pytest.raises(ValueError):
        SimPlan(ModelParams(2, 0.5), (0, 0), 10, 0)
    with pytest.raises(ValueError):
        SimPlan(ModelParams(2, 0.5), (0, 0), 10, 1, seed=-1)
    # the site check the kernels and the exact sweeps share, and integer,
    # non-bool counts
    for kwargs, message in [
        ({"start": (0.5, 0)}, "start must have integer coordinates"),
        ({"start": (True, 0)}, "start must have integer coordinates"),
        ({"start": (2**63 - 10, 0)}, "start must stay in the int64 range for 10 steps"),
        ({"steps": True}, "steps must be a nonnegative integer"),
        ({"steps": 2.0}, "steps must be a nonnegative integer"),
        ({"paths": True}, "paths must be an integer >= 1"),
        ({"seed": True}, "seed must be a 64-bit unsigned integer"),
    ]:
        plan = {"params": ModelParams(2, 0.5), "start": (0, 0), "steps": 10, "paths": 3,
                **kwargs}
        with pytest.raises(ValueError, match=message):
            SimPlan(**plan)
    with pytest.raises(ValueError):
        trajectory(SimPlan(ModelParams(2, 0.5), (0, 0), 10, 2))
    with pytest.raises(ValueError):
        simulate_batch(SimPlan(ModelParams(2, 0.5), (0, 0), 0, 2))


def test_trajectories_consistent_with_batch_and_single_path():
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 25, 6, seed=9)
    paths = trajectories(plan)
    assert paths.shape == (6, 26, 2)
    # endpoints match the aggregated batch, path 0 matches trajectory()
    batch = simulate_batch(plan)
    assert np.allclose((paths[:, -1, :] / plan.steps).mean(axis=0), batch.mean_endpoint)
    single = trajectory(SimPlan(ModelParams(2, 0.5), (0, 0), 25, 1, seed=9))
    np.testing.assert_array_equal(paths[0], single)
    # every consecutive pair along every path is a legal kernel move
    kern_moves = set()
    for j in range(6):
        for k in range(25):
            src, dst = tuple(paths[j, k]), tuple(paths[j, k + 1])
            step = tuple(b - a for a, b in zip(src, dst))
            kern_moves.add((sum(abs(c) for c in step), max(map(abs, step))))
    assert kern_moves == {(1, 1)}


def test_trajectories_history_budget(monkeypatch):
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 100, 10, seed=0)
    monkeypatch.setattr(simulate, "MAX_ELEMENTS", 1000)
    with pytest.raises(ResourceBudgetError):
        trajectories(plan)


def test_dimension_beyond_the_table_is_refused_before_it_is_built(monkeypatch):
    # the zero-pattern table has 2^d rows, so d = 17 is refused before it
    plan = SimPlan(ModelParams(17, 0.5), (0,) * 17, 1, 1)
    monkeypatch.setattr(simulate, "_Walk", lambda *args: pytest.fail("built the table"))
    with pytest.raises(ResourceBudgetError, match=r"^simulation supports dim <= 16, got 17$"):
        simulate_batch(plan)


def test_martingale_diagnostic_needs_a_step():
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 0, 3)
    with pytest.raises(ValueError, match="martingale statistics need steps >= 1"):
        martingale_diagnostic(plan)


@pytest.mark.parametrize("run, paths, elements", [
    (simulate_batch, 10, 10 * 2),
    (martingale_diagnostic, 10, 10 * 2),
    (boundary_visits, 10, 10 * 2),
    (trajectories, 10, 6 * 10 * 2),
    (trajectory, 1, 6 * 1 * 2),
])
def test_every_run_reads_the_element_budget_at_the_call(run, paths, elements, monkeypatch):
    # MAX_ELEMENTS is read at each call: one element short of the state
    # block (of the history, when the path is kept) refuses, and it runs
    plan = SimPlan(ModelParams(2, 0.5), (0, 0), 5, paths, seed=1)
    monkeypatch.setattr(simulate, "MAX_ELEMENTS", elements - 1)
    with pytest.raises(ResourceBudgetError, match=rf"needs {elements} .*budget is {elements - 1}$"):
        run(plan)
    monkeypatch.setattr(simulate, "MAX_ELEMENTS", elements)
    run(plan)


def _recorder(step, seen):
    def record(self, rows, t0, k):
        seen.append(rows.size)
        step(self, rows, t0, k)
    return record


def _draws(seen):
    """simulate._step_bits, recording the shape of every block of draws."""
    def record(states, t):
        bits = _step_bits(states, t)
        seen.append(bits.shape)
        return bits
    return record


@pytest.mark.parametrize("paths, budget", [(40_000, None), (40_000, 40_000 * 3), (2_000, 2_000 * 3)])
def test_chunks_stay_within_the_chunk_rule_and_the_budget(paths, budget, monkeypatch):
    # from (_BLOCK,) * 3 every path is far in the first block and most are
    # near in the second, so both kinds of chunk run at their widest
    plan = SimPlan(ModelParams(3, 0.9), (_BLOCK,) * 3, 24, paths, seed=5)
    far, near, draws = [], [], []
    monkeypatch.setattr(simulate._Walk, "far_block", _recorder(simulate._Walk.far_block, far))
    monkeypatch.setattr(simulate._Walk, "near_block", _recorder(simulate._Walk.near_block, near))
    monkeypatch.setattr(simulate, "_step_bits", _draws(draws))
    if budget is not None:
        monkeypatch.setattr(simulate, "MAX_ELEMENTS", budget)
    cap = simulate.MAX_ELEMENTS // (_BLOCK * 3)
    simulate_batch(plan)
    assert sum(far) + sum(near) == 2 * paths
    assert max(far) == min(_CHUNK // _BLOCK, cap)
    assert max(near) == min(_CHUNK, cap)
    # a chunk's draws, a far block's or a group of near steps', stay
    # within _CHUNK elements
    assert max(math.prod(shape) for shape in draws) <= _CHUNK


@pytest.mark.parametrize("chunk", [24, _BLOCK])
def test_results_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    # both far and near rows run; at _CHUNK = 24 or _BLOCK a far chunk holds
    # 2 rows or 1
    plan = SimPlan(ModelParams(2, 0.5), (_BLOCK, _BLOCK), 40, 300, seed=17)
    runs = []
    for size in (16384, chunk):
        monkeypatch.setattr(simulate, "_CHUNK", size)
        batch = simulate_batch(plan)
        runs.append([*vars(batch).values(), trajectories(plan),
                     *vars(martingale_diagnostic(plan)).values()])
    for a, b in zip(*runs):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_only_the_martingale_statistics_take_the_martingale_sums():
    # _run returns the stepped walk; the statistics that report no
    # martingale sum never take them, and the two that do take them once
    plan = SimPlan(ModelParams(2, 0.9), (0, 0), 2 * _BLOCK + 5, 40, seed=31)
    single = SimPlan(ModelParams(2, 0.9), (0, 0), 2 * _BLOCK + 5, 1, seed=31)
    ref = _reference_run(plan, keep_path=True, max_elements=10**8)

    def refuse(walk):
        raise AssertionError("took the martingale sums")
    with mock.patch.object(_Walk, "martingale_sums", refuse):
        paths, path, visits = trajectories(plan), trajectory(single), boundary_visits(plan)
    assert np.array_equal(paths, np.swapaxes(ref.history, 0, 1))
    assert np.array_equal(path, ref.history[:, 0])
    assert visits == dict(sorted(Counter(ref.visits.tolist()).items()))
    sums = _Walk.martingale_sums
    for run in (simulate_batch, martingale_diagnostic):
        calls = []

        def count(walk):
            calls.append(walk)
            return sums(walk)
        with mock.patch.object(_Walk, "martingale_sums", count):
            run(plan)
        assert len(calls) == 1
