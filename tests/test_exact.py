"""Tests for exact finite-horizon computations."""

from __future__ import annotations

import inspect
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from biasedwalk import ModelParams, ResourceBudgetError, cli, exact, ldp, simulate
from biasedwalk.kernel import _moves
from biasedwalk.exact import (
    BallotCount,
    ballot_counts,
    check_domination_lower,
    check_domination_upper,
    domination_profile,
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


@pytest.mark.parametrize("far", [(2**31,), (2**40,), (2**31, -2**40), (2**63 - 4, 4 - 2**63)])
def test_far_starts_give_the_small_start_laws_shifted(far):
    # the signed and drifted sweeps read their sites in int64, so a start
    # past 2**31 (or next to the edge of the int64 range) gives the law of a
    # start off the faces, shifted bit for bit
    p, n = ModelParams(len(far), 0.5), 3
    near = tuple(n + 1 if c > 0 else -n - 1 for c in far)
    for law in (propagate_full, propagate_drifted):
        shifted = {tuple(y + f - s for y, f, s in zip(site, far, near)): mass
                   for site, mass in law(p, near, n).items()}
        assert law(p, far, n) == shifted
    assert propagate_full(ModelParams(1, 0.5), (2**31,), 2) == {
        (2**31 - 2,): 1 / 9, (2**31,): 4 / 9, (2**31 + 2,): 4 / 9}
    # a box that leaves the int64 range is refused at the call
    for start in ((2**63 - 3,) + far[1:], (10**30,) + far[1:]):
        with pytest.raises(ValueError, match=r"start must stay in the int64 range for 3 steps"):
            propagate_drifted(p, start, n)


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


def _reference_weights(p, walk, coords):
    """Per-axis (up, down) probabilities of the walk's moves over the box
    whose lattice coordinates along axis i broadcast from coords[i], read
    from the per-site law kernel._moves; None for a move that no site of
    the box makes."""
    widths, big_d = _moves(p, walk, coords)
    return [tuple(w / big_d if w.any() else None for w in (up, down)) for down, up in widths]


def _scattered(box, values, sites):
    """A reading's level-ordered values written into a zero grid of the
    whole box at their sites."""
    full = np.zeros(tuple(map(len, box)))
    full[tuple(c - axis.start for c, axis in zip(sites, box))] = values
    return full


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 4),
    lam=st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    data=st.data(),
    walk=st.sampled_from(["drifted", "reflected", "signed"]),
)
def test_reachable_sweep_matches_full_box_reference(d, lam, data, walk):
    # Starts on and off the faces, up to 25 steps (10 at d = 4).  The box is
    # the one exact._sweep builds, or, to reach the clip at its far edge,
    # that box cut short by up to two cells per axis, so that mass runs out
    # of it in both sweeps alike.  Every reading must equal the reference
    # bit for bit, and the last one, put in C order of its sites, must give
    # the reference's nonzero cells in C order, at int64 lattice sites
    n = data.draw(st.integers(0, 10 if d == 4 else 25))
    start = tuple(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    cut = data.draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    p = ModelParams(d, lam)
    box = tuple(axis[:max(c - axis.start + 1, len(axis) - k)]
                for axis, c, k in zip(exact._box(p, walk, start, n, math.inf), start, cut))
    coords = np.ix_(*(np.arange(axis.start, axis.stop) for axis in box))
    expected = []
    final = _reference_evolve(tuple(map(len, box)),
                              tuple(c - axis.start for c, axis in zip(start, box)),
                              _reference_weights(p, walk, coords), n,
                              lambda k, grid: expected.append(grid.copy()))
    k = -1
    for k, (values, sites) in enumerate(exact._evolve(p, walk, start, n, box)):
        assert np.array_equal(_scattered(box, values, sites), expected[k]), k
    assert k == len(expected) - 1 == n
    nz = np.nonzero(final)
    got, sites = exact._site_order(values, sites)
    assert np.array_equal(got, final[nz])
    assert all(s.dtype == np.int64 and np.array_equal(s, i + axis.start)
               for s, i, axis in zip(sites, nz, box))


def test_reachable_sweep_peak_memory():
    # a d=3 sweep keeps its tables over the reachable cells only: the whole
    # box costs one int32 array
    def sweep(n):
        for _ in exact._sweep(ModelParams(3, 0.5), "reflected", (0, 0, 0), n):
            pass

    sweep(2)
    tracemalloc.start()
    try:
        sweep(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak


def _cells(law):
    """The sites of a one-step law, once its mass is checked to be 1."""
    assert math.isclose(math.fsum(law.values()), 1.0)
    return len(law)


def _reflected_step(p):
    return _cells(propagate(p, (0,) * p.dim, 1))


def _signed_step(p):
    return _cells(propagate_full(p, (0,) * p.dim, 1))


def _upper_step(p):
    (report,) = domination_profile(p, "upper", 1)
    return report.cells_checked


@pytest.mark.parametrize("d, step, size, bound", [
    (10, _reflected_step, 10, 2**20),
    (12, _reflected_step, 12, 4 * 2**20),
    (20, _reflected_step, 20, 16 * 2**20),
    (12, _signed_step, 24, 8 * 2**20),
    (13, _upper_step, 13, 16 * 2**20),
])
def test_sweep_memory_scales_with_the_box_not_a_framed_box(d, step, size, bound, monkeypatch):
    # one step from the origin needs a box of 2^d cells (3^d for the signed
    # and drifted walks), which the budget allows; a distance array over
    # the box framed by one cell per side would hold 4^d cells (4 MiB at
    # d = 10, 64 MiB at d = 12), and a move table with a row per zero
    # pattern or sign pattern 2^d or 3^d rows of 2d widths.  The reflected
    # step runs at a budget of its box alone.  Measured cold
    p = ModelParams(d, 0.5)
    if step is _reflected_step:
        monkeypatch.setattr(exact, "MAX_CELLS", 2**d)
    tracemalloc.start()
    try:
        cells = step(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    assert cells == size


def _tilted_log_mgf(p, start, n):
    return log_mgf(p, start, n, (0.3, -0.2))


def _upper_check(p, start, n):
    return check_domination_upper(p, n)


def _lower_profile(p, start, n):
    return domination_profile(p, "lower", n, start=start)


@pytest.mark.parametrize("sweep, start, cells", [
    (propagate, (2, 0), 8 * 6),
    (propagate_full, (2, 0), 11 * 11),
    (propagate_drifted, (1, 1), 11 * 11),
    (_tilted_log_mgf, (2, 0), 8 * 6),
    (_upper_check, (0, 0), 11 * 11),
    (_lower_profile, (1, 2), 11 * 11),
])
def test_budget_counts_the_full_box_before_sweeping(sweep, start, cells, monkeypatch):
    # the support is far smaller than the box for most of the sweep, but
    # the budget still counts the box, and is checked before any step.  A
    # domination profile counts the box of its largest horizon at the call.
    # log_mgf keeps the law it swept at the default budget, and that law
    # must not get round a smaller one
    p = ModelParams(2, 0.5)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a request over budget")

    with monkeypatch.context() as m:
        m.setattr(exact, "_evolve", no_sweep)
        m.setattr(exact, "MAX_CELLS", cells - 1)
        with pytest.raises(ResourceBudgetError,
                           match=rf"needs {cells} cells .* is {cells - 1}$") as cold:
            sweep(p, start, 5)
    assert sweep(p, start, 5)
    monkeypatch.setattr(exact, "MAX_CELLS", cells)
    assert sweep(p, start, 5)
    monkeypatch.setattr(exact, "_evolve", no_sweep)
    if sweep is _tilted_log_mgf:
        # the kept law answers within the budget, with no sweep
        assert sweep(p, start, 5)
    monkeypatch.setattr(exact, "MAX_CELLS", cells - 1)
    with pytest.raises(ResourceBudgetError) as warm:
        sweep(p, start, 5)
    assert str(warm.value) == str(cold.value)


@pytest.mark.parametrize("sweep, cells", [
    (lambda p: propagate(p, (0, 0), 4), 5 * 5),
    (lambda p: propagate_full(p, (0, 0), 4), 9 * 9),
    (lambda p: propagate_drifted(p, (0, 0), 4), 9 * 9),
    (lambda p: log_mgf(p, (0, 0), 4, (0.3, -0.2)), 5 * 5),
    (lambda p: return_probability(p, 4), 5 * 5),
    (lambda p: return_probability_profile(p, 4), 5 * 5),
    (lambda p: domination_profile(p, "upper", 4), 9 * 9),
    (lambda p: check_domination_upper(p, 4), 9 * 9),
    (lambda p: check_domination_lower(p, (1, 2), 4), 9 * 9),
    (lambda p: ldp.ldp_consistency(p, 0.5, [2, 4]), 5 * 5),
])
def test_every_sweep_reads_the_cell_budget_at_the_call(sweep, cells, monkeypatch):
    # MAX_CELLS is read at each call, not bound at import: one cell short
    # of the box, every entry point refuses; at the box, it runs
    p = ModelParams(2, 0.5)
    monkeypatch.setattr(exact, "MAX_CELLS", cells - 1)
    with pytest.raises(ResourceBudgetError, match=rf"needs {cells} cells .* is {cells - 1}$"):
        sweep(p)
    monkeypatch.setattr(exact, "MAX_CELLS", cells)
    sweep(p)


def test_budgets_are_module_constants_not_keywords():
    # every budget is a module constant read at the call, so no public
    # function takes one; the one max_* parameter left is a horizon
    named = {(mod.__name__, name, param)
             for mod in (exact, ldp, simulate)
             for name, fn in inspect.getmembers(mod, inspect.isfunction)
             if fn.__module__ == mod.__name__ and not name.startswith("_")
             for param in inspect.signature(fn).parameters if param.startswith("max_")}
    assert named == {("biasedwalk.exact", "return_probability_profile", "max_horizon")}
    assert (exact.MAX_CELLS, exact.MAX_WORK, simulate.MAX_ELEMENTS) == (
        2_000_000, 1_100_000, 50_000_000)


@pytest.mark.parametrize("call, message", [
    (lambda p: log_mgf(p, (0, 0), 3.0, (0.1, 0.2)), "step count must be an integer, got 3.0"),
    (lambda p: propagate(p, (0, 0), 2.0), "step count must be an integer, got 2.0"),
    (lambda p: propagate_full(p, (0, 0), True), "step count must be an integer, got True"),
    (lambda p: return_probability(p, 2.0), "step count must be an integer, got 2.0"),
    (lambda p: propagate(p, (0.5, 0), 2), "start must have integer coordinates"),
    (lambda p: propagate_drifted(p, (0, 1.0), 2), "start must have integer coordinates"),
    (lambda p: log_mgf(p, (True, 0), 2, (0.1, 0.2)), "start must have integer coordinates"),
    (lambda p: enumerate_oracle(p, (0, 0), 2.5), "step count must be an integer, got 2.5"),
    (lambda p: enumerate_oracle(p, (0.5, 0), 2), "start must have integer coordinates"),
    (lambda p: ballot_counts(True, 0, 1), "n, alpha and beta must be integers"),
    (lambda p: ballot_counts(4.0, 0, 2), "n, alpha and beta must be integers"),
    (lambda p: ballot_counts(4, 0.5, 2), "n, alpha and beta must be integers"),
    (lambda p: ballot_counts(4, 0, np.float64(2)), "n, alpha and beta must be integers"),
    (lambda p: propagate(p, (0, 0), -1), "step count must be nonnegative, got -1"),
    (lambda p: ballot_counts(0, 0, 0), "need at least one step, got n=0"),
])
def test_exact_rejects_non_integer_steps_and_starts(call, message):
    # 3.0 hashes like 3, so a law kept for n = 3 must not answer n = 3.0
    p = ModelParams(2, 0.5)
    assert math.isfinite(log_mgf(p, (0, 0), 3, (0.1, 0.2)))
    assert math.isfinite(log_mgf(p, (1, 0), 2, (0.1, 0.2)))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(p)


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


def test_oracle_budget(monkeypatch):
    # the count weighs each site by its 2d moves of d coordinates and a
    # rational of up to n steps, each step's digits by the bit length of
    # lam's rational (at least 0.3's 55 bits), counts the last level's
    # sites too, and is made at the call, before any step.  The ranges
    # pinned by the long-horizon property fit, and no more
    def no_step(*args):
        raise AssertionError("stepped a request over budget")

    monkeypatch.setattr(exact, "_rational_moves", no_step)
    for d, lam, n, sites, work in [
        (2, 0.5, 25, 11726, 1266408), (3, 0.5, 13, 12936, 1241856),
        (48, 0.5, 3, 156996, 768652416), (64, 0.5, 3, 366340, 3141731840),
        # lam = 5e-324 has a 1075-bit rational
        (1, 5e-324, 30, 961, 1128912), (2, 5e-324, 12, 1469, 1389941),
        (3, 5e-324, 7, 1408, 1181184), (2, 5e-324, 24, 10425, 19644490),
        # and 0.1, below 0.3's binade, one of 56 bits
        (2, 0.1, 24, 10425, 1102396),
    ]:
        message = rf"do {work} units of work \({sites} sites\), budget is 1100000$"
        with pytest.raises(ResourceBudgetError, match=message):
            enumerate_oracle(ModelParams(d, lam), (0,) * d, n)
    monkeypatch.setattr(exact, "MAX_WORK", 1084199)
    with pytest.raises(ResourceBudgetError, match=r"do 1084200 units .* budget is 1084199$"):
        enumerate_oracle(ModelParams(2, 0.3), (0, 0), 24)
    monkeypatch.undo()
    assert sum(enumerate_oracle(ModelParams(2, 0.5), (0, 0), 24).values()) == 1
    assert sum(enumerate_oracle(ModelParams(3, 0.5), (0, 0, 0), 12).values()) == 1
    assert sum(enumerate_oracle(ModelParams(1, 5e-324), (0,), 29).values()) == 1


def brute_oracle(p: ModelParams, start, n: int) -> dict:
    """The n-step law of the signed walk summed path by path over the
    oracle's Fraction kernel: the enumeration its forward sweep replaced."""
    lam = Fraction(p.lam)
    law: dict = {}

    def walk(v, prob, left):
        if left == 0:
            law[v] = law.get(v, 0) + prob
            return
        for u, q in exact._rational_moves(lam, v):
            walk(u, prob * q, left - 1)

    walk(tuple(start), Fraction(1), n)
    return law


def test_oracle_matches_brute_enumeration():
    # the same Fractions as summing path by path, on and off the faces;
    # lam = 5e-324 gives large rationals, so it stops sooner
    for d in (1, 2, 3):
        for lam in (0.0, 5e-324, 0.3, 1 - 2**-53):
            p = ModelParams(d, lam)
            n_max = ((6, 4, 3) if lam == 5e-324 else (6, 6, 4))[d - 1]
            for start in ((0,) * d, (2,) + (-1,) * (d - 1), (1,) * d):
                for n in range(n_max + 1):
                    assert enumerate_oracle(p, start, n) == brute_oracle(p, start, n)


def _assert_matches_oracle(law: dict, oracle: dict) -> None:
    """law holds no site outside the oracle's support and every site whose
    mass is at least the smallest normal double, and each mass is within
    1e-12 of the oracle's.  A smaller mass may underflow to 0.0."""
    assert set(law) <= set(oracle)
    assert {y for y, q in oracle.items() if q >= sys.float_info.min} <= set(law)
    for y, q in oracle.items():
        assert abs(law.get(y, 0.0) - float(q)) <= 1e-12, y


class _Stepped(Exception):
    """Raised in place of an oracle step."""


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(1, 3),
    lam=st.one_of(
        st.sampled_from([0.0, 1.0 - 2.0**-53, 5e-324]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    n=st.integers(0, 60),
    site=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    tilt=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)
@example(d=2, lam=1.0 - 2.0**-53, n=24, site=[0, 3, 0], tilt=[0.5, -1.5, 0.0])
@example(d=3, lam=0.0, n=12, site=[0, 2, 1], tilt=[2.0, 0.25, -1.0])
@example(d=2, lam=0.1, n=24, site=[1, 0, 0], tilt=[0.5, 0.5, 0.0])
def test_propagators_match_oracle_at_long_horizons(d, lam, n, site, tilt):
    # horizons where both parity blocks fill and the pad slot is read, on
    # and off the faces.  The rationals of lam = 5e-324 have 2^-1074
    # denominators, which grow fast, so it stays at small n
    p, start, s = ModelParams(d, lam), tuple(site[:d]), tilt[:d]
    n %= ((24, 8, 5) if lam == 5e-324 else (60, 24, 12))[d - 1] + 1
    with mock.patch.object(exact, "_rational_moves", side_effect=_Stepped):
        try:
            enumerate_oracle(p, start, n)
        except ResourceBudgetError:
            # a random lam whose rational is longer than 0.3's costs the
            # oracle more work per step, and a long horizon may exceed its
            # budget: it is refused at the call, before any step
            assert Fraction(lam).denominator.bit_length() > 55
            return
        except _Stepped:
            pass
    oracle = enumerate_oracle(p, start, n)
    folded = fold_to_orthant(oracle)
    _assert_matches_oracle(propagate_full(p, start, n), oracle)
    _assert_matches_oracle(propagate(p, start, n), folded)
    ref = math.log(math.fsum(float(q) * math.exp(math.fsum(c * k for c, k in zip(s, y)))
                             for y, q in folded.items()))
    assert abs(log_mgf(p, start, n, s) - ref) <= 1e-12 * (1.0 + abs(ref))


def _drifted_laws(p: ModelParams, start, n: int):
    """The laws of the drifted walk after 0, 1, ..., n steps from start, in
    exact rationals, by a DP over its constant kernel: +e_i with probability
    1/(d(1 + lam)) and -e_i with lam/(d(1 + lam)) from every site."""
    d, lam = p.dim, Fraction(p.lam)
    moves = [(i, 1, 1 / (d * (1 + lam))) for i in range(d)]
    moves += [(i, -1, lam / (d * (1 + lam))) for i in range(d) if lam]
    law = {tuple(start): Fraction(1)}
    yield law
    for _ in range(n):
        step: dict = {}
        for v, mass in law.items():
            for i, delta, prob in moves:
                u = v[:i] + (v[i] + delta,) + v[i + 1:]
                step[u] = step.get(u, 0) + mass * prob
        law = step
        yield law


@pytest.mark.parametrize("d", [1, 2, 3])
def test_drifted_law_matches_rational_dp(d):
    # every horizon up to 12, from starts on and off the faces, within the
    # signed pin's tolerance; lam = 5e-324 gives large rationals, so it
    # stops sooner
    for lam in (0.0, 5e-324, 0.3, 1.0 - 2.0**-53):
        p = ModelParams(d, lam)
        n_max = (12, 8, 4)[d - 1] if lam == 5e-324 else 12
        for start in ((0,) * d, (2,) + (-1,) * (d - 1)):
            for n, law in enumerate(_drifted_laws(p, start, n_max)):
                _assert_matches_oracle(propagate_drifted(p, start, n), law)


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


def test_log_mgf_opposite_overflowing_products_cancel():
    # s_1 y_1 overflows to +inf and s_2 y_2 to -inf, yet s.y is finite
    p = ModelParams(2, 0.5)
    assert log_mgf(p, (2, 2), 0, [1e308, -1e308]) == 0.0
    assert log_mgf(p, (2, 3), 0, [1e308, -1e308]) == -1e308
    assert log_mgf(p, (2, 2), 1, [1e308, -1e308]) == 1e308


def _reference_log_mgf(p, start, n, s):
    """ln sum_y P(y) exp(s.y) over propagate's law.  Each term ln P(y) + s.y
    is summed exactly and rounded once, to +-inf beyond double range, and
    the exponentials are summed with math.fsum."""
    terms = []
    for y, mass in propagate(p, start, n).items():
        exact_term = Fraction(math.log(mass)) + sum(Fraction(c) * k for c, k in zip(s, y))
        try:
            terms.append(float(exact_term))
        except OverflowError:
            terms.append(math.inf if exact_term > 0 else -math.inf)
    top = max(terms)
    if not math.isfinite(top):
        return top
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


_TILT = st.one_of(
    st.floats(-1e308, 1e308),
    st.floats(-50.0, 50.0),
    # products s_i y_i just past double range, of either sign
    st.integers(-17, 17).map(lambda k: k * 1e307),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 3),
    lam=st.floats(0.0, 1.0, exclude_max=True),
    n=st.integers(0, 30),
    tilt=st.lists(_TILT, min_size=3, max_size=3),
    site=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
# every term is far below zero, and the largest one holds an overflowing
# product s_1 y_1 = -1.8e308 beside s_2 y_2 = 7e307
@example(d=2, lam=0.5, n=1, tilt=[-6e307, 7e307, 0.0], site=[3, 0, 0])
def test_log_mgf_wide_tilts_match_fsum_reference(d, lam, n, tilt, site):
    # any finite tilt, huge, subnormal or of mixed signs: either a finite
    # value close to the reference, or OverflowError where the true value
    # is beyond double range (or within a factor 1e8 of its edge)
    s, start = tilt[:d], tuple(site[:d])
    p = ModelParams(d, lam)
    ref = _reference_log_mgf(p, start, n, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = log_mgf(p, start, n, s)
        except OverflowError:
            assert not math.isfinite(ref) or abs(ref) > 1e300, ref
            return
    assert math.isfinite(value) and math.isfinite(ref), (value, ref)
    tol = 1e-12 * (1.0 + abs(ref)) + n * math.fsum(1e-12 * abs(c) for c in s)
    assert abs(value - ref) <= tol, (value, ref)


def _outcome(p, start, n, s):
    """log_mgf's value as its bits, or its OverflowError message."""
    try:
        return log_mgf(p, start, n, s).hex()
    except OverflowError as err:
        return str(err)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 3),
    lam=st.one_of(st.sampled_from([0.0, 1 - 2**-53]), st.floats(0.0, 1.0, exclude_max=True)),
    n=st.integers(0, 30),
    site=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    tilts=st.lists(st.lists(_TILT, min_size=3, max_size=3), min_size=2, max_size=5),
    others=st.lists(st.sampled_from(["n", "n + 2", "lam", "start"]), max_size=6),
)
@example(d=2, lam=0.5, n=1, site=[3, 0, 0], others=["lam", "n", "start", "n + 2"],
         tilts=[[-6e307, 7e307, 0.0], [1e308, -1e308, 0.0], [0.5, 0.25, 0.0]])
def test_log_mgf_kept_law_gives_the_swept_bits(d, lam, n, site, tilts, others):
    # each tilt read from a kept law gives the bits of a fresh sweep, on the
    # rescaled overflow path too.  Between the reads, laws are kept whose
    # keys differ from (p, start, n) in one part, so that a key missing that
    # part shows, and the memo fills up and evicts; never more than three,
    # so that (p, start, n) stays kept
    p, start = ModelParams(d, lam), tuple(site[:d])
    near = {
        "n": (p, start, n + 1),
        "n + 2": (p, start, n + 2),
        "lam": (ModelParams(d, 0.25 if lam == 0.5 else 0.5), start, n),
        "start": (p, (start[0] + 1, *start[1:]), n),
    }
    swept = []
    for s in tilts:
        exact._log_law.cache_clear()
        swept.append(_outcome(p, start, n, s[:d]))
    exact._log_law.cache_clear()
    for i, (s, value) in enumerate(zip(tilts, swept)):
        for other in others[i::len(tilts)]:
            _outcome(*near[other], s[:d])
        assert _outcome(p, start, n, s[:d]) == value
        info = exact._log_law.cache_info()
        assert info.currsize <= info.maxsize
    assert info.hits >= len(tilts) - 1
    logs, sites = exact._log_law(p, start, n)
    assert all(a.dtype == np.int64 for a in sites)
    for a in (logs, *sites):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


_LSE_TERM = st.one_of(
    st.floats(),                   # any double, subnormals and +-inf included
    st.floats(-50.0, 50.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 0.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    terms=arrays(np.float64, st.integers(1, 2000), elements=_LSE_TERM),
    ties=st.lists(st.integers(0, 1999), max_size=6),
)
@example(terms=np.full(7, -3.5), ties=[])
@example(terms=np.array([-math.inf, -math.inf]), ties=[])
@example(terms=np.array([1e308, 1e308, 0.0]), ties=[])
@example(terms=np.array([math.inf, 1.0, math.nan]), ties=[])
def test_logsumexp_matches_scipy_bit_for_bit(terms, ties):
    # the mgf goldens were recorded with scipy 1.17's logsumexp; the local
    # one must give its bits, NaN where it gives NaN, and never warn.  Up
    # to six more terms are set to the maximum, so that it is tied
    terms[[i % terms.size for i in ties]] = terms.max()
    with np.errstate(all="ignore"):
        want = float(logsumexp(terms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exact._logsumexp(terms)
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


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
    # ballot_counts' reflection formula against a direct DP over (step,
    # height): counts[h] paths of n steps 0 -> h that stay >= 0, for every
    # n <= 200 and every gap, uphill and downhill
    counts = [1]
    for n in range(1, 201):
        counts = [(counts[h - 1] if h else 0) + (counts[h + 1] if h + 1 < n else 0)
                  for h in range(n + 1)]
        for g in range(n + 1):
            assert ballot_counts(n, 0, g).floored == counts[g], (n, g)
            assert ballot_counts(n, g - 7, -7).floored == counts[g], (n, g)


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


def _reference_domination(p, mode, start, n):
    """(worst difference, cells checked) at horizon n from the public laws:
    px - scale * pz, scale 1 for the upper bound and n^(-d) for the lower,
    over the orthant sites of the union of both supports."""
    px, pz = propagate_full(p, start, n), propagate_drifted(p, start, n)
    scale = 1.0 if mode == "upper" else float(n) ** -p.dim
    diffs = [px.get(y, 0.0) - scale * pz.get(y, 0.0)
             for y in set(px) | set(pz) if min(y) >= 0]
    return (max if mode == "upper" else min)(diffs), len(diffs)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    lam=st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    mode=st.sampled_from(["upper", "lower"]),
    data=st.data(),
)
def test_domination_profile_matches_the_laws(d, lam, mode, data):
    # one signed and one drifted sweep read at every horizon give each
    # horizon's report of the public laws, value bit for bit and cell count
    # exactly, and so do the single-horizon checks.  The lower bound starts
    # from sites with coordinates 1 to 4, on and off the diagonal
    p = ModelParams(d, lam)
    n_max = data.draw(st.integers(1, (20, 10, 6)[d - 1]))
    start = None
    if mode == "lower":
        start = tuple(data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    profile = domination_profile(p, mode, n_max, start=start)
    assert [r.n for r in profile] == list(range(1, n_max + 1))
    for r in profile:
        single = (check_domination_upper(p, r.n) if mode == "upper"
                  else check_domination_lower(p, start, r.n))
        worst, cells = _reference_domination(p, mode, start or (0,) * d, r.n)
        value = r.max_violation if mode == "upper" else r.min_slack
        assert r.mode == single.mode == mode
        assert value.hex() == worst.hex() == (single.max_violation if mode == "upper"
                                              else single.min_slack).hex(), r.n
        assert r.cells_checked == single.cells_checked == cells, r.n
        assert (r.min_slack if mode == "upper" else r.max_violation) is None


def test_domination_validation(capsys, monkeypatch):
    # the checks run at the call, before the domination generator is read
    # and before any sweep is set up
    p = ModelParams(2, 0.5)
    with monkeypatch.context() as m:
        m.setattr(exact, "_evolve", lambda *args: pytest.fail("swept an invalid request"))
        for call, message in [
            (lambda: check_domination_lower(p, (0, 1), 3), "every coordinate >= 1"),
            (lambda: domination_profile(p, "lower", 3, start=(0, 1)), "every coordinate >= 1"),
            (lambda: exact._dominations(p, "lower", (0, 1), 1, 3), "every coordinate >= 1"),
            (lambda: check_domination_lower(p, (1, 1), 0), "need at least one step"),
            (lambda: check_domination_lower(p, (1, 1), "3"), "step count must be an integer"),
            (lambda: domination_profile(p, "upper", 2.0), "step count must be an integer"),
            (lambda: domination_profile(p, "upper", 3, start=(1, 1)), "only to the lower"),
            (lambda: domination_profile(p, "sideways", 3), "mode must be"),
        ]:
            with pytest.raises(ValueError, match=message):
                call()
    # each CLI record carries the one bound its mode checks
    for mode, bound in (("upper", "max_violation"), ("lower", "min_slack")):
        argv = ["dominate", "--dim", "2", "--lambda", "0.5", "--mode", mode, "--n-max", "3"]
        assert cli.main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(set(row) == {"mode", "n", "cells_checked", bound} for row in rows)
