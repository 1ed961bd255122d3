"""Tests for the deterministic Monte Carlo engine."""

from __future__ import annotations

import math
from collections import Counter

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
    _RawBatch,
    _path_states,
    _row,
    _run,
    _step_uniforms,
    _table,
)


def _reference_run(plan: SimPlan, *, keep_path: bool, max_elements: int) -> _RawBatch:
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

    return _RawBatch(
        endpoints=Y, visits=visits, xi_sum=xi_sum, xi_sumsq=xi_sumsq, states=history
    )


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
@given(plan=_plans(), tight=st.booleans())
def test_block_stepping_matches_reference_loop(keep_path, plan, tight):
    # A tight budget splits the paths into many chunks per block.
    d, n, m = plan.params.dim, plan.steps, plan.paths
    budget = (n + 1) * m * d if keep_path else m * d
    fast = _run(plan, keep_path=keep_path, max_elements=budget if tight else 10**8)
    ref = _reference_run(plan, keep_path=keep_path, max_elements=10**8)
    assert np.array_equal(fast.endpoints, ref.endpoints)
    assert np.array_equal(fast.visits, ref.visits)
    if keep_path:
        assert np.array_equal(fast.states, ref.states)
    # The martingale sums are taken in another order, so they may differ
    # by rounding, at most a few ulps of 1 per increment.
    count = n * m
    assert np.all(np.abs(fast.xi_sum - ref.xi_sum) <= 1e-13 * count)
    assert np.all(np.abs(fast.xi_sumsq - ref.xi_sumsq) <= 1e-13 * count)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("lam", [0.0, 5e-324, 0.3, 1.0 - 2.0**-53])
def test_move_table_rows_are_the_law_at_their_sites(d, lam):
    # row r of the simulator's table holds the reflected law, bit for bit,
    # at a site whose zero pattern is r: each coordinate 0 where bit i of r
    # is set and 1 or 7 elsewhere, the row its site is read at
    p = ModelParams(d, lam)
    widths, big_d = _table(p)
    assert widths.shape == (2**d, 2 * d) and big_d.shape == (2**d,)
    for r in range(2**d):
        for far in (1, 7):
            site = tuple(0 if r >> i & 1 else far for i in range(d))
            assert _row(np.array(site)[:, None]).tolist() == [r]
            law, law_d = _moves(p, "reflected", site)
            assert big_d[r] == law_d
            assert widths[r].tolist() == [float(w) for pair in law for w in pair]


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
    raw = _run(plan, keep_path=False, max_elements=10**8)
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
