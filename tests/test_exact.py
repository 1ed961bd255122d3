"""Tests for exact finite-horizon computations."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from biasedwalk import ModelParams, ResourceBudgetError, exact
from biasedwalk.exact import (
    BallotCount,
    ballot_counts,
    check_domination_lower,
    check_domination_upper,
    enumerate_oracle,
    fold_to_orthant,
    log_mgf,
    propagate,
    propagate_drifted,
    propagate_full,
    return_probability,
    return_probability_profile,
)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_propagate_one_step_from_origin():
    for lam in (0.0, 0.4, 0.8):
        dist = propagate(ModelParams(2, lam), (0, 0), 1)
        assert dist == {(1, 0): 0.5, (0, 1): 0.5}


def test_propagate_two_steps_d1():
    dist = propagate(ModelParams(1, 0.25), (0,), 2)
    assert set(dist) == {(0,), (2,)}
    assert math.isclose(dist[(0,)], 0.2, abs_tol=1e-15)
    assert math.isclose(dist[(2,)], 0.8, abs_tol=1e-15)


def test_propagate_mass_and_support():
    for d, lam, n in [(1, 0.25, 300), (2, 0.5, 120), (3, 0.7, 40)]:
        p = ModelParams(d, lam)
        start = (1,) + (0,) * (d - 1)
        dist = propagate(p, start, n)
        total = math.fsum(dist.values())
        assert abs(total - 1.0) <= 1e-10
        base = sum(start)
        for y, mass in dist.items():
            assert mass > 0.0
            assert all(c >= 0 for c in y)
            assert sum(y) <= base + n
            assert (sum(y) - base - n) % 2 == 0


def test_propagate_drifted_examples():
    dist = propagate_drifted(ModelParams(1, 0.5), (0,), 2)
    assert math.isclose(dist[(-2,)], 1 / 9, abs_tol=1e-15)
    assert math.isclose(dist[(0,)], 4 / 9, abs_tol=1e-15)
    assert math.isclose(dist[(2,)], 4 / 9, abs_tol=1e-15)
    for lam in (0.25, 0.6):
        one = propagate_drifted(ModelParams(2, lam), (0, 0), 1)
        assert math.isclose(one[(1, 0)], 1 / (2 * (1 + lam)), abs_tol=1e-15)
        assert math.isclose(one[(-1, 0)], lam / (2 * (1 + lam)), abs_tol=1e-15)


def test_propagate_drifted_marginal_is_product_law():
    # coordinates of the free walk are driven by a common direction pick,
    # but each coordinate's marginal law matches the 1-d walk thinned to
    # the moves that touched it; check marginal against direct convolution
    p = ModelParams(2, 0.5)
    n = 6
    dist = propagate_drifted(p, (0, 0), n)
    marg: dict[int, float] = {}
    for (a, b), mass in dist.items():
        marg[a] = marg.get(a, 0.0) + mass
    # 1-d: in each step coordinate 1 moves +1 w.p. 1/3, -1 w.p. 1/6, stays
    # w.p. 1/2 -> trinomial convolution
    w = {1: 1 / 3, -1: 1 / 6, 0: 1 / 2}
    law = {0: 1.0}
    for _ in range(n):
        new: dict[int, float] = {}
        for x, mass in law.items():
            for step, q in w.items():
                new[x + step] = new.get(x + step, 0.0) + mass * q
        law = new
    for x, mass in marg.items():
        assert math.isclose(mass, law.get(x, 0.0), abs_tol=1e-12)


def test_propagate_full_folds_to_reflected():
    for d, lam in [(1, 0.3), (2, 0.0), (2, 0.7)]:
        p = ModelParams(d, lam)
        start = (0,) * d
        n = 7
        folded = fold_to_orthant(propagate_full(p, start, n))
        refl = propagate(p, start, n)
        assert set(folded) == set(refl)
        for y in refl:
            assert math.isclose(folded[y], refl[y], abs_tol=1e-12)


def test_propagate_budget():
    with pytest.raises(ResourceBudgetError):
        propagate(ModelParams(3, 0.5), (0, 0, 0), 500)


# Reference for exact._evolve: the full-box sweep, which updates the whole
# box at every step with 2d temporaries.
def _reference_evolve(shape, start_idx, axis_weights, n, snapshot=None):
    """Push a point mass through n steps of a nearest-neighbour kernel.

    axis_weights[i] = (w_up, w_down): per-cell probability of moving +1 / -1
    along axis i, evaluated at the source cell.  Entries may be scalars,
    broadcastable arrays, or None (no such move).  The box must contain the
    n-step reachable set; the slicing below never wraps mass around.
    """
    dim = len(shape)
    P = np.zeros(shape)
    P[start_idx] = 1.0
    if snapshot is not None:
        snapshot(0, P)

    def sl(axis: int, s: slice) -> tuple:
        return tuple(s if j == axis else slice(None) for j in range(dim))

    for k in range(1, n + 1):
        new = np.zeros_like(P)
        for i, (w_up, w_down) in enumerate(axis_weights):
            if w_up is not None:
                src = P * w_up
                new[sl(i, slice(1, None))] += src[sl(i, slice(0, -1))]
            if w_down is not None:
                src = P * w_down
                new[sl(i, slice(0, -1))] += src[sl(i, slice(1, None))]
        P = new
        if snapshot is not None:
            snapshot(k, P)
    return P


_FAMILIES = {
    "reflected": (exact._reflected_weights, True),
    "signed": (exact._signed_weights, False),
    "drifted": (exact._drifted_weights, False),
}


def _placed(shape, grid, lo):
    """A support array written into a zero grid of the whole box."""
    full = np.zeros(shape)
    full[tuple(slice(a, a + k) for a, k in zip(lo, grid.shape))] = grid
    return full


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    lam=st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    data=st.data(),
    n=st.integers(0, 25),
    family=st.sampled_from(sorted(_FAMILIES)),
)
def test_support_sweep_matches_full_box_reference(d, lam, data, n, family):
    # Starts on and off the faces.  The box is the one exact._sweep builds,
    # or, to reach the clip at its far edge, that box cut short by up to two
    # cells per axis, so that mass runs out of it in both sweeps alike.
    # Every snapshot and the final grid must equal the reference bit for bit.
    start = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    cut = data.draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    p = ModelParams(d, lam)
    weights, orthant = _FAMILIES[family]
    corner = (0,) * d if orthant else tuple(c - n for c in start)
    at = tuple(c - lo for c, lo in zip(start, corner))
    shape = tuple(max(a + 1, a + n + 1 - c) for a, c in zip(at, cut))
    coords = [exact._axis_view(lo + np.arange(k), d, i)
              for i, (lo, k) in enumerate(zip(corner, shape))]
    axis_weights = weights(p, coords)
    expected = []
    final = _reference_evolve(shape, at, axis_weights, n,
                              lambda k, grid: expected.append(grid.copy()))
    seen = []
    grid, lo = exact._evolve(shape, at, axis_weights, n,
                             lambda k, grid, lo: seen.append(_placed(shape, grid, lo)))
    assert len(seen) == len(expected) == n + 1
    for k, (got, want) in enumerate(zip(seen, expected)):
        assert np.array_equal(got, want), k
    assert np.array_equal(_placed(shape, grid, lo), final)


@pytest.mark.parametrize("sweep, start, cells", [
    (propagate, (2, 0), 8 * 6),
    (propagate_full, (2, 0), 11 * 11),
    (propagate_drifted, (1, 1), 11 * 11),
])
def test_budget_counts_the_full_box_before_sweeping(sweep, start, cells, monkeypatch):
    # the support is far smaller than the box for most of the sweep, but
    # the budget still counts the box, and is checked before any step
    p = ModelParams(2, 0.5)
    assert sweep(p, start, 5, max_cells=cells)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a request over budget")

    monkeypatch.setattr(exact, "_evolve", no_sweep)
    with pytest.raises(ResourceBudgetError):
        sweep(p, start, 5, max_cells=cells - 1)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def test_oracle_trivial_cases():
    p = ModelParams(2, 0.3)
    assert enumerate_oracle(p, (2, -1), 0) == {(2, -1): Fraction(1)}
    law = enumerate_oracle(ModelParams(1, 0.25), (0,), 2)
    assert law[(0,)] == Fraction(1, 5)
    assert sum(law.values()) == 1


def test_oracle_total_mass_exactly_one():
    for d, lam in [(1, 0.7), (2, 0.3)]:
        law = enumerate_oracle(ModelParams(d, lam), (0,) * d, 5)
        assert sum(law.values()) == 1


def test_oracle_matches_propagators():
    # dual-route equivalence at small n: float DP vs exact rationals
    for d in (1, 2):
        for lam in (0.0, 0.3, 0.7):
            p = ModelParams(d, lam)
            start = (0,) * d
            for n in (3, 6):
                oracle = enumerate_oracle(p, start, n)
                full = propagate_full(p, start, n)
                assert set(full) == {k for k, v in oracle.items() if v}
                for k, mass in full.items():
                    assert abs(mass - float(oracle[k])) <= 1e-12
                refl = propagate(p, start, n)
                folded = fold_to_orthant(oracle)
                for y, mass in refl.items():
                    assert abs(mass - float(folded[y])) <= 1e-12


def test_oracle_budget():
    with pytest.raises(ResourceBudgetError):
        enumerate_oracle(ModelParams(2, 0.5), (0, 0), 12)


# ---------------------------------------------------------------------------
# log moment generating function
# ---------------------------------------------------------------------------


def test_log_mgf_zero_tilt_is_zero():
    assert abs(log_mgf(ModelParams(2, 0.5), (0, 0), 50, [0.0, 0.0])) <= 1e-12


def test_log_mgf_matches_direct_sum():
    p = ModelParams(2, 0.4)
    s = np.array([0.7, -1.2])
    n = 9
    dist = propagate(p, (0, 0), n)
    direct = math.log(
        math.fsum(mass * math.exp(s @ np.array(y)) for y, mass in dist.items())
    )
    assert math.isclose(log_mgf(p, (0, 0), n, s), direct, abs_tol=1e-12)


def test_log_mgf_monotone_in_tilt():
    p = ModelParams(1, 0.25)
    vals = [log_mgf(p, (0,), 40, [s]) for s in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_log_mgf_no_overflow_large_tilt():
    # s*n ~ 2*500: naive summation would overflow exp
    val = log_mgf(ModelParams(1, 0.25), (0,), 500, [2.0])
    assert np.isfinite(val)
    assert val > 500  # dominated by the ballistic corner e^{2*~n}


@pytest.mark.parametrize("s", [[math.nan, 0.1], [0.2, math.inf], [-math.inf, 0.0]])
def test_log_mgf_rejects_non_finite_tilt(s):
    with pytest.raises(ValueError, match="finite"):
        log_mgf(ModelParams(2, 0.5), (0, 0), 10, s)


def test_log_mgf_beyond_double_range_raises_overflow():
    p = ModelParams(2, 0.5)
    with pytest.raises(OverflowError):
        log_mgf(p, (0, 0), 4, [1e308, 0.1])
    # a huge negative tilt only drops the terms off the face y_1 = 0
    dist = propagate(p, (0, 0), 4)
    kept = [math.log(q) + 0.1 * y[1] for y, q in dist.items() if y[0] == 0]
    assert math.isclose(log_mgf(p, (0, 0), 4, [-1e308, 0.1]), logsumexp(kept),
                        rel_tol=1e-15)


def test_log_mgf_convergence_checkpoint():
    # (1/2n)*Lambda_{2n}(s,0) at s=1 within 0.02 of ln psi at 2n=500
    p = ModelParams(1, 0.25)
    lam, d = 0.25, 1
    s = 1.0
    psi = (lam * math.exp(-s) + math.exp(s)) / (d * (1 + lam))
    gap = abs(log_mgf(p, (0,), 500, [s]) / 500 - math.log(psi))
    assert gap <= 0.02


# ---------------------------------------------------------------------------
# return probabilities
# ---------------------------------------------------------------------------


def test_return_probability_examples():
    assert math.isclose(return_probability(ModelParams(1, 0.25), 2), 0.2, abs_tol=1e-15)
    assert return_probability(ModelParams(2, 0.5), 0) == 1.0
    with pytest.raises(ValueError):
        return_probability(ModelParams(1, 0.25), 3)


def test_return_probability_profile_consistent():
    p = ModelParams(2, 0.5)
    prof = dict(return_probability_profile(p, 12))
    assert set(prof) == set(range(0, 13, 2))
    for h in (0, 4, 10):
        assert math.isclose(prof[h], return_probability(p, h), abs_tol=1e-14)


def test_return_probability_regression_with_prefactor_correction():
    # ln p^(2n) + (3/2) ln n is affine in n up to O(1/n): regressing it on
    # n over [50, 100] recovers 2 ln rho to a tenth of a percent, which
    # pins the polynomial prefactor exponent at -3/2 for d=1.
    p = ModelParams(1, 0.25)
    prof = dict(return_probability_profile(p, 200))
    ns = np.arange(50, 101)
    y = np.array([math.log(prof[2 * int(n)]) + 1.5 * math.log(n) for n in ns])
    slope = np.polyfit(ns, y, 1)[0]
    target = 2 * math.log(0.8)
    assert abs(slope - target) / abs(target) <= 0.005


# ---------------------------------------------------------------------------
# ballot counts
# ---------------------------------------------------------------------------


def brute_ballot(n: int, alpha: int, beta: int) -> BallotCount:
    total = 0
    floored = 0
    lo = min(alpha, beta)
    for signs in itertools.product((-1, 1), repeat=n):
        pos = alpha
        ok = True
        for s in signs:
            pos += s
            if pos < lo:
                ok = False
        if pos == beta:
            total += 1
            if ok:
                floored += 1
    return BallotCount(n, alpha, beta, total, floored)


def test_ballot_examples():
    assert ballot_counts(4, 0, 0) == BallotCount(4, 0, 0, 6, 2)
    got = ballot_counts(4, 0, 2)
    assert (got.total, got.floored) == (4, 3)
    assert got.floored * 4 >= 2 * got.total
    assert ballot_counts(3, 0, 0) == BallotCount(3, 0, 0, 0, 0)


def test_ballot_against_brute_enumeration():
    for n in (1, 2, 3, 5, 8):
        for alpha in (-2, 0, 3):
            for beta in (-3, -1, 0, 2, 4):
                got = ballot_counts(n, alpha, beta)
                want = brute_ballot(n, alpha, beta)
                assert (got.total, got.floored) == (want.total, want.floored)


def test_ballot_reflection_closed_form():
    # independent closed form: paths 0 -> g staying >= 0 number
    # C(n, (n+g)/2) - C(n, (n+g)/2 + 1)
    for n in range(1, 21):
        for g in range(0, n + 1):
            if (n - g) % 2:
                continue
            got = ballot_counts(n, 0, g).floored
            k = (n + g) // 2
            want = math.comb(n, k) - (math.comb(n, k + 1) if k + 1 <= n else 0)
            assert got == want


def test_ballot_inequality_integer_form():
    for n in range(1, 21):
        for alpha in range(-5, 6):
            for beta in range(-5, 6):
                c = ballot_counts(n, alpha, beta)
                assert 0 <= c.floored <= c.total
                assert n * c.floored >= (abs(alpha - beta) or 1) * c.total


# ---------------------------------------------------------------------------
# domination checks
# ---------------------------------------------------------------------------


def test_domination_upper_example():
    report = check_domination_upper(ModelParams(1, 0.5), 2)
    # k=0: P(X_2=0)=1/3 vs P(Z_2=0)=4/9; worst cell is k=2 where both
    # walks must step out twice
    assert report.mode == "upper"
    assert report.max_violation <= 1e-12
    assert report.cells_checked >= 2


def test_domination_upper_sweep_small():
    for d in (1, 2):
        for lam in (0.25, 0.75):
            for n in (1, 4, 7):
                report = check_domination_upper(ModelParams(d, lam), n)
                assert report.max_violation <= 1e-12


def test_domination_lower_example():
    report = check_domination_lower(ModelParams(1, 0.5), (1,), 2)
    assert report.mode == "lower"
    assert report.min_slack >= -1e-12
    # slack at k=3 specifically: both laws give (2/3)^2, scale 1/2
    px = propagate_full(ModelParams(1, 0.5), (1,), 2)
    pz = propagate_drifted(ModelParams(1, 0.5), (1,), 2)
    assert math.isclose(px[(3,)], 4 / 9, abs_tol=1e-15)
    assert math.isclose(px[(3,)] - 0.5 * pz[(3,)], 2 / 9, abs_tol=1e-15)


def test_domination_lower_one_step_equality():
    # off the boundary the kernels coincide, so at n=1 slack is exactly
    # (1 - 1) * P = 0 at every reachable cell
    p = ModelParams(2, 0.4)
    report = check_domination_lower(p, (2, 3), 1)
    assert abs(report.min_slack) <= 1e-15


def test_domination_lower_sweep_small():
    for d in (1, 2):
        for lam in (0.25, 0.5):
            for n in (2, 5, 8):
                report = check_domination_lower(ModelParams(d, lam), (1,) * d, n)
                assert report.min_slack >= -1e-12


def test_domination_validation():
    with pytest.raises(ValueError):
        check_domination_lower(ModelParams(2, 0.5), (0, 1), 3)
    report = check_domination_upper(ModelParams(2, 0.5), 3)
    d = report.as_dict()
    assert set(d) == {"mode", "n", "cells_checked", "max_violation"}
