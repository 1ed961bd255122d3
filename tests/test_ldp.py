"""Unit tests for the rate-function layer: the limiting log-mgf, its
convex conjugate, the closed forms, the covariance factorization, the
path action, and the exact tail-rate comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biasedwalk import ldp
from biasedwalk.errors import ConvergenceError
from biasedwalk.kernel import ModelParams

P1 = ModelParams(1, 0.25)


def interior_point(rng: np.random.Generator, d: int, budget: float = 0.95):
    u = rng.random(d) + 1e-3
    return u / u.sum() * rng.uniform(0.05, budget)


# ---------------------------------------------------------------------------
# psi and log_psi
# ---------------------------------------------------------------------------


def test_psi_is_one_at_zero_tilt():
    for d in (1, 2, 3, 5):
        for lam in (0.0, 0.1, 0.5, 0.9):
            assert ldp.psi(ModelParams(d, lam), [0.0] * d) == pytest.approx(
                1.0, abs=1e-14
            )


def test_psi_flat_branch_below_kink():
    # Below s0 the coordinate contributes the constant rho/d, so in d=1
    # every s < s0 gives psi = rho.
    assert ldp.psi(P1, [-1.0]) == pytest.approx(P1.rho, abs=1e-15)
    assert ldp.psi(P1, [-50.0]) == pytest.approx(P1.rho, abs=1e-15)


def test_psi_continuous_at_kink():
    s0 = P1.s0
    assert ldp.psi(P1, [s0]) == pytest.approx(P1.rho, abs=1e-15)
    # smooth branch value at the kink equals the flat constant
    lam = P1.lam
    assert (lam * math.exp(-s0) + math.exp(s0)) / (1 + lam) == pytest.approx(
        P1.rho, abs=1e-15
    )
    assert ldp.psi(P1, [s0 + 1e-9]) == pytest.approx(P1.rho, abs=1e-8)


def test_psi_lam_zero_is_mean_of_exponentials():
    p = ModelParams(3, 0.0)
    s = np.array([0.3, -1.2, 2.0])
    assert ldp.psi(p, s) == pytest.approx(float(np.mean(np.exp(s))), rel=1e-14)


def test_log_psi_no_overflow_for_large_tilt():
    p = ModelParams(2, 0.5)
    val = ldp.log_psi(p, [800.0, 800.0])
    assert math.isfinite(val)
    assert val == pytest.approx(800.0 - math.log(2 * 1.5) + math.log(2), abs=1e-9)


def test_psi_rejects_wrong_shape():
    with pytest.raises(ValueError):
        ldp.log_psi(ModelParams(2, 0.5), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("s", [[math.nan, 0.1], [0.2, math.inf], [-math.inf, 0.0]])
def test_log_psi_rejects_non_finite_tilt(s):
    # NaN would pass through logaddexp as a NaN limit and an exit-0 artifact
    with pytest.raises(ValueError, match="finite"):
        ldp.log_psi(ModelParams(2, 0.5), s)


def test_log_psi_at_huge_tilts_is_finite_and_quiet():
    # logaddexp forms x - y = -2e308 internally; its value is still exact,
    # and under the suite's warning filter any overflow warning would fail
    p = ModelParams(2, 0.5)
    assert ldp.log_psi(p, [1e308, 0.1]) == 1e308
    assert ldp.log_psi(p, [-1e308, 0.1]) == ldp.log_psi(p, [-50.0, 0.1])
    q = ModelParams(2, 0.0)
    assert ldp.log_psi(q, [-1e308, 0.1]) == pytest.approx(0.1 - math.log(2), rel=1e-15)


@given(
    d=st.integers(1, 4),
    lam=st.floats(0.01, 0.95),
    raw=st.lists(st.floats(-4.0, 3.0), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_psi_flattens_coordinates_below_kink(d, lam, raw):
    s = np.resize(np.asarray(raw, dtype=float), d)
    p = ModelParams(d, lam)
    flattened = np.maximum(s, p.s0)
    assert ldp.log_psi(p, s) == pytest.approx(ldp.log_psi(p, flattened), abs=1e-14)


@given(
    d=st.integers(1, 3),
    lam=st.floats(0.0, 0.95),
    raw_a=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    raw_b=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_log_psi_midpoint_convexity(d, lam, raw_a, raw_b):
    p = ModelParams(d, lam)
    a = np.resize(np.asarray(raw_a, dtype=float), d)
    b = np.resize(np.asarray(raw_b, dtype=float), d)
    mid = ldp.log_psi(p, 0.5 * (a + b))
    assert mid <= 0.5 * (ldp.log_psi(p, a) + ldp.log_psi(p, b)) + 1e-12


# ---------------------------------------------------------------------------
# covariance and scaling matrices
# ---------------------------------------------------------------------------


def test_sigma_matrix_frozen_d2_half():
    sigma = ldp.sigma_matrix(ModelParams(2, 0.5))
    expect = np.array([[17.0, -1.0], [-1.0, 17.0]]) / 36.0
    assert np.max(np.abs(sigma - expect)) <= 1e-15


def test_scaling_identity_d1_closed_form():
    p = ModelParams(1, 0.25)
    m = ldp.scaling_matrix(p)
    assert m[0, 0] == pytest.approx(p.rho, abs=1e-15)
    assert ldp.sigma_matrix(p)[0, 0] == pytest.approx(
        4 * p.lam / (1 + p.lam) ** 2, abs=1e-15
    )


def test_scaling_identity_sweep():
    worst = max(
        ldp.clt_matrix_check(ModelParams(d, round(0.1 * k, 1)))
        for d in range(1, 6)
        for k in range(10)
    )
    assert worst <= 1e-12


def test_sigma_singular_exactly_at_lam_zero():
    ones = np.ones(2)
    assert np.max(np.abs(ldp.sigma_matrix(ModelParams(2, 0.0)) @ ones)) <= 1e-15
    assert np.min(ldp.sigma_matrix(ModelParams(2, 0.5)) @ ones) > 0.0


# ---------------------------------------------------------------------------
# rate function: ground truths and classification
# ---------------------------------------------------------------------------


def test_rate_vanishes_exactly_at_speed():
    for d in (1, 2, 3):
        for lam in (0.25, 0.5):
            p = ModelParams(d, lam)
            res = ldp.rate_function(p, p.speed)
            assert res.value <= 1e-12
            assert res.domain_class == "interior"
            assert res.kkt_residual <= 1e-10


def test_rate_positive_away_from_speed():
    p = ModelParams(2, 0.5)
    v = p.speed
    for shift in ([0.05, 0.0], [0.0, -0.05], [0.1, 0.1], [-0.08, 0.03]):
        x = v + np.asarray(shift)
        assert ldp.rate_function(p, x).value > 1e-4


def test_rate_d1_at_origin():
    res = ldp.rate_function(P1, [0.0])
    assert res.value == pytest.approx(-math.log(0.8), abs=1e-12)
    assert res.domain_class == "coordinate_boundary"
    assert res.argmax_s == (P1.s0,)
    assert res.kkt_residual == 0.0
    assert res.iterations == 0


def test_rate_d1_at_unit_endpoint():
    res = ldp.rate_function(P1, [1.0])
    assert res.value == pytest.approx(math.log(1.25), abs=1e-12)
    assert res.domain_class == "simplex_boundary"
    assert res.at_infinity
    assert res.argmax_s is None
    assert math.isnan(res.kkt_residual)


def test_rate_lam_zero_d2_values():
    p = ModelParams(2, 0.0)
    half = ldp.rate_function(p, [0.5, 0.5])
    assert half.value == 0.0
    assert half.argmax_s == (0.0, 0.0)
    assert half.kkt_residual <= 1e-14
    assert half.domain_class == "simplex_boundary"
    corner = ldp.rate_function(p, [1.0, 0.0])
    assert corner.value == pytest.approx(math.log(2), abs=1e-12)
    assert corner.at_infinity and corner.argmax_s is None
    # off the simplex nothing is reachable at lam = 0
    off = ldp.rate_function(p, [0.3, 0.3])
    assert math.isinf(off.value) and off.domain_class == "outside"


def test_rate_outside_iff_infinite():
    p = ModelParams(2, 0.5)
    cases = [
        ([-0.1, 0.3], True),
        ([0.6, 0.6], True),
        ([0.3, 0.3], False),
        ([0.0, 0.0], False),
        ([0.5, 0.5], False),
    ]
    for x, outside in cases:
        res = ldp.rate_function(p, x)
        assert (res.domain_class == "outside") is outside
        assert math.isinf(res.value) is outside
        assert res.value >= 0.0


def test_rate_coordinate_boundary_pins_tilt_at_kink():
    p = ModelParams(2, 0.5)
    res = ldp.rate_function(p, [0.4, 0.0])
    assert res.domain_class == "coordinate_boundary"
    assert res.argmax_s is not None and res.argmax_s[1] == p.s0
    assert res.kkt_residual <= 1e-10
    assert res.value == pytest.approx(ldp.rate_closed_form(p, [0.4, 0.0]), abs=1e-10)


def test_rate_snaps_float_noise_onto_faces():
    p = ModelParams(2, 0.5)
    clean = ldp.rate_function(p, [0.4, 0.0])
    noisy = ldp.rate_function(p, [0.4, -1e-13])
    assert noisy.domain_class == "coordinate_boundary"
    assert noisy.value == pytest.approx(clean.value, abs=1e-12)
    near = ldp.rate_function(p, [0.6, 0.4 - 1e-13])
    assert near.domain_class == "simplex_boundary"


def test_rate_rejects_deterministic_walk():
    with pytest.raises(ValueError):
        ldp.rate_function(ModelParams(1, 0.0), [0.5])


@pytest.mark.parametrize("x", [[math.nan, 0.1], [0.2, math.inf], [-math.inf, 0.0]])
def test_rate_rejects_non_finite_point(x):
    # NaN fails every domain comparison, so it would otherwise be classed
    # as interior and given a plausible-looking rate.
    with pytest.raises(ValueError, match="finite"):
        ldp.rate_function(ModelParams(2, 0.5), x)


def test_rate_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(ldp, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError):
        ldp.rate_function(ModelParams(2, 0.5), [0.3, 0.2])
    with pytest.raises(ConvergenceError):
        ldp.rate_function(ModelParams(1, 0.25), [0.37])


def test_rate_simplex_face_is_diagonal_limit():
    # The face value must be the monotone limit of the objective along
    # tilts s_i = c + ln(d * x_i), and equals ln(d(1+lam)) + sum x ln x.
    for p, x in (
        (ModelParams(2, 0.4), np.array([0.55, 0.45])),
        (ModelParams(3, 0.25), np.array([0.2, 0.3, 0.5])),
    ):
        res = ldp.rate_function(p, x)
        assert res.domain_class == "simplex_boundary" and res.at_infinity
        seq = []
        for c in (4.0, 8.0, 16.0, 32.0):
            s = c + np.log(p.dim * x)
            seq.append(float(s @ x) - ldp.log_psi(p, s))
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert seq[-1] <= res.value + 1e-12
        assert res.value == pytest.approx(seq[-1], abs=1e-10)
        alt = math.log(p.dim * (1 + p.lam)) + float(np.sum(x * np.log(x)))
        assert res.value == pytest.approx(alt, abs=1e-14)


def test_rate_simplex_corner_value():
    # At x = e_1 the entropy term vanishes: value = ln(d(1+lam)).
    p = ModelParams(2, 0.5)
    res = ldp.rate_function(p, [1.0, 0.0])
    assert res.domain_class == "simplex_boundary"
    assert res.value == pytest.approx(math.log(2 * 1.5), abs=1e-14)
    seq = [
        float(np.array([c, p.s0]) @ [1.0, 0.0]) - ldp.log_psi(p, [c, p.s0])
        for c in (5.0, 10.0, 20.0)
    ]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert res.value == pytest.approx(seq[-1], abs=1e-8)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_d1_hand_values():
    assert ldp.rate_closed_form(P1, [0.6]) == pytest.approx(0.0, abs=1e-12)
    assert ldp.rate_closed_form(P1, [0.0]) == pytest.approx(
        -math.log(P1.rho), abs=1e-14
    )
    assert ldp.rate_closed_form(P1, [1.0]) == pytest.approx(
        math.log(1.25), abs=1e-14
    )


def test_closed_form_matches_transform_d1():
    for x in np.linspace(0.01, 0.99, 50):
        assert ldp.rate_closed_form(P1, [x]) == pytest.approx(
            ldp.rate_function(P1, [x]).value, abs=1e-10
        )


def test_closed_form_matches_transform_d2():
    grid = np.linspace(0.02, 0.47, 12)
    for lam in (0.25, 0.5, 0.75):
        p = ModelParams(2, lam)
        for x1 in grid:
            for x2 in grid:
                if x1 + x2 < 0.98:
                    assert ldp.rate_closed_form(p, [x1, x2]) == pytest.approx(
                        ldp.rate_function(p, [x1, x2]).value, abs=1e-10
                    )


def test_closed_form_d2_symmetric_in_coordinates():
    p = ModelParams(2, 0.4)
    for x1, x2 in ((0.3, 0.1), (0.45, 0.2), (0.25, 0.2500001)):
        assert ldp.rate_closed_form(p, [x1, x2]) == pytest.approx(
            ldp.rate_closed_form(p, [x2, x1]), abs=1e-14
        )


def test_closed_form_reduced_part_is_lambda_free():
    # Splitting off (1/2)(sum x) ln(lam) - ln(rho) leaves a part that
    # depends on x alone; its value at (0.5, 0.2) is a frozen anchor.
    x = [0.5, 0.2]
    bars = []
    for lam in (0.25, 0.5, 0.75):
        p = ModelParams(2, lam)
        bars.append(
            ldp.rate_closed_form(p, x)
            - 0.5 * 0.7 * math.log(lam)
            + math.log(p.rho)
        )
    assert max(bars) - min(bars) <= 1e-12
    assert bars[0] == pytest.approx(0.3161386342792674, abs=1e-12)


def test_closed_form_lam_zero_entropy():
    p = ModelParams(2, 0.0)
    assert ldp.rate_closed_form(p, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-14)
    assert ldp.rate_closed_form(p, [1.0, 0.0]) == pytest.approx(
        math.log(2), abs=1e-14
    )
    p3 = ModelParams(3, 0.0)
    third = [1 / 3] * 3
    assert ldp.rate_closed_form(p3, third) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.random(3) + 0.05
        x = u / u.sum()
        assert ldp.rate_closed_form(p3, x) == pytest.approx(
            ldp.rate_function(p3, x).value, abs=1e-12
        )


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        ldp.rate_closed_form(P1, [1.1])
    with pytest.raises(ValueError):
        ldp.rate_closed_form(P1, [-0.1])
    with pytest.raises(ValueError):
        ldp.rate_closed_form(ModelParams(2, 0.5), [0.6, 0.4])
    with pytest.raises(ValueError):
        ldp.rate_closed_form(ModelParams(2, 0.0), [0.3, 0.3])
    with pytest.raises(ValueError):
        ldp.rate_closed_form(ModelParams(3, 0.5), [0.2, 0.2, 0.2])
    with pytest.raises(ValueError):
        ldp.rate_closed_form(ModelParams(1, 0.0), [0.5])


# ---------------------------------------------------------------------------
# duality and convexity
# ---------------------------------------------------------------------------


@given(
    d=st.integers(1, 3),
    lam=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_duality_sandwich(d, lam, seed):
    rng = np.random.default_rng(seed)
    p = ModelParams(d, lam)
    x = interior_point(rng, d)
    res = ldp.rate_function(p, x)
    for _ in range(5):
        s = rng.uniform(-2.0, 3.0, d)
        assert float(s @ x) - ldp.log_psi(p, s) <= res.value + 1e-8
    assert res.argmax_s is not None
    s_star = np.asarray(res.argmax_s)
    attained = float(s_star @ x) - ldp.log_psi(p, s_star)
    assert attained == pytest.approx(res.value, abs=1e-10)


@given(
    d=st.integers(1, 3),
    lam=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_rate_midpoint_convexity(d, lam, seed):
    rng = np.random.default_rng(seed)
    p = ModelParams(d, lam)
    x, y = interior_point(rng, d), interior_point(rng, d)
    fx = ldp.rate_function(p, x).value
    fy = ldp.rate_function(p, y).value
    fm = ldp.rate_function(p, 0.5 * (x + y)).value
    assert fm <= 0.5 * (fx + fy) + 1e-12
    if float(np.linalg.norm(x - y)) >= 0.1:
        assert fm < 0.5 * (fx + fy) - 1e-10


# ---------------------------------------------------------------------------
# path action
# ---------------------------------------------------------------------------


def test_path_straight_at_speed_costs_nothing():
    v = float(P1.speed[0])
    path = ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0,), (v,)))
    assert ldp.path_rate_functional(P1, path) == pytest.approx(0.0, abs=1e-12)


def test_path_straight_line_reproduces_rate():
    path = ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0,), (0.37,)))
    assert ldp.path_rate_functional(P1, path) == pytest.approx(
        ldp.rate_function(P1, [0.37]).value, abs=1e-14
    )


def test_path_two_segment_hand_value():
    # slope 1 for the first half, then flat: (1/2)ln(1.25) + (1/2)(-ln 0.8)
    path = ldp.PiecewiseLinearPath(
        times=(0.0, 0.5, 1.0), values=((0.0,), (0.5,), (0.5,))
    )
    expect = 0.5 * math.log(1.25) - 0.5 * math.log(0.8)
    assert ldp.path_rate_functional(P1, path) == pytest.approx(expect, abs=1e-12)


def test_path_leaving_domain_costs_infinity():
    down = ldp.PiecewiseLinearPath(
        times=(0.0, 0.5, 1.0), values=((0.0,), (0.6,), (0.2,))
    )
    assert math.isinf(ldp.path_rate_functional(P1, down))
    fast = ldp.PiecewiseLinearPath(
        times=(0.0, 0.5, 1.0), values=((0.0,), (0.6,), (0.7,))
    )
    assert math.isinf(ldp.path_rate_functional(P1, fast))
    # at lam = 0 any segment whose slope leaves the simplex is infinite
    p = ModelParams(2, 0.0)
    bent = ldp.PiecewiseLinearPath(
        times=(0.0, 0.5, 1.0),
        values=((0.0, 0.0), (0.2, 0.2), (0.7, 0.3)),
    )
    assert math.isinf(ldp.path_rate_functional(p, bent))
    straight = ldp.PiecewiseLinearPath(
        times=(0.0, 1.0), values=((0.0, 0.0), (1.0, 0.0))
    )
    assert ldp.path_rate_functional(p, straight) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_path_validation():
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.0, 0.5), values=((0.0,), (0.1,)))
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.1, 1.0), values=((0.0,), (0.1,)))
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(
            times=(0.0, 0.5, 0.5, 1.0),
            values=((0.0,), (0.1,), (0.2,), (0.3,)),
        )
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.1,), (0.2,)))
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0,), (-0.2,)))
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0,), (0.1, 0.2)))
    path = ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0, 0.0), (0.1, 0.1)))
    with pytest.raises(ValueError):
        ldp.path_rate_functional(P1, path)


def test_path_json_round_trip():
    js = '[{"t": 0, "phi": [0, 0]}, {"t": 0.5, "phi": [0.2, 0.1]}, {"t": 1, "phi": [0.3, 0.3]}]'
    path = ldp.path_from_json(js)
    assert path.dim == 2
    assert path.times == (0.0, 0.5, 1.0)
    parsed = ldp.path_from_json([{"t": 0, "phi": [0]}, {"t": 1, "phi": [0.5]}])
    assert parsed.values == ((0.0,), (0.5,))
    with pytest.raises(ValueError):
        ldp.path_from_json('[{"t": 0}, {"t": 1}]')


# ---------------------------------------------------------------------------
# tail-rate consistency tables
# ---------------------------------------------------------------------------


def test_consistency_gap_shrinks_d1():
    rows = ldp.ldp_consistency(P1, 0.9, [100, 200])
    assert [r.n for r in rows] == [100, 200]
    assert all(r.limit_rate == pytest.approx(
        ldp.rate_function(P1, [0.9]).value, abs=1e-12) for r in rows)
    assert rows[0].gap > rows[1].gap > 0.0
    assert all(r.gap == r.empirical_rate - r.limit_rate for r in rows)


def test_consistency_unit_threshold_is_exact():
    # P(X_n = n) = (1/(1+lam))^(n-1): one forced step off the axis wall,
    # then n-1 outward choices.
    rows = ldp.ldp_consistency(P1, 1.0, [50, 100])
    for r in rows:
        assert r.empirical_rate == pytest.approx(
            (1 - 1 / r.n) * math.log(1.25), abs=1e-12
        )
        assert r.tail_prob == pytest.approx(1.25 ** -(r.n - 1), rel=1e-10)
        assert r.limit_rate == pytest.approx(math.log(1.25), abs=1e-12)


def test_consistency_typical_threshold_has_zero_limit():
    rows = ldp.ldp_consistency(P1, 0.2, [100])
    assert rows[0].limit_rate == 0.0
    assert rows[0].empirical_rate <= 1e-6


def test_consistency_d2_face_minimization():
    p = ModelParams(2, 0.25)
    rows = ldp.ldp_consistency(p, 0.7, [40, 80])
    scan = min(
        ldp.rate_function(p, [0.7, t]).value for t in np.linspace(0.0, 0.3, 301)
    )
    assert rows[0].limit_rate <= scan + 1e-9
    assert rows[0].limit_rate == pytest.approx(scan, abs=1e-4)
    assert rows[0].gap > rows[1].gap > 0.0


def test_consistency_validation():
    with pytest.raises(ValueError):
        ldp.ldp_consistency(P1, 1.2, [10])
    with pytest.raises(ValueError):
        ldp.ldp_consistency(P1, -0.1, [10])
    with pytest.raises(ValueError):
        ldp.ldp_consistency(ModelParams(3, 0.5), 0.9, [10])
    with pytest.raises(ValueError):
        ldp.ldp_consistency(P1, 0.9, [0])


def test_consistency_row_dict_keys():
    row = ldp.ldp_consistency(P1, 0.9, [50])[0]
    assert list(row.as_dict()) == [
        "n",
        "tail_prob",
        "empirical_rate",
        "limit_rate",
        "gap",
    ]
