"""Unit tests for the rate-function layer: the limiting log-mgf, its
convex conjugate, the closed forms, the covariance factorization, the
path action, and the exact tail-rate comparison."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

from biasedwalk import cli, ldp
from biasedwalk.errors import ConvergenceError
from biasedwalk.kernel import ModelParams, _finite_rows

P1 = ModelParams(1, 0.25)


def interior_point(rng: np.random.Generator, d: int, budget: float = 0.95):
    u = rng.random(d) + 1e-3
    return u / u.sum() * rng.uniform(0.05, budget)


# ---------------------------------------------------------------------------
# x ln y
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    """Equal as doubles, signed zeros told apart, any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(np.all(both_nan | (a.view(np.int64) == b.view(np.int64))))


_XLOGY_ARG = st.one_of(
    st.floats(),
    st.floats(0.0, 4.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 1.0, 5e-324, 1e308]),
)


@settings(max_examples=400, deadline=None)
@given(x=st.lists(_XLOGY_ARG, min_size=1, max_size=6),
       y=st.lists(_XLOGY_ARG, min_size=1, max_size=6))
def test_xlogy_matches_scipy_bit_for_bit(x, y):
    # the rate goldens were recorded with scipy's xlogy, whose log is
    # libm's; the local one must give its bits on scalars and on arrays of
    # length d, with 0 where x == 0 and y is not NaN
    d = min(len(x), len(y))
    xs, ys = np.array(x[:d]), np.array(y[:d])
    with np.errstate(all="ignore"):
        assert _same_bits(ldp._xlogy(xs, ys), xlogy(xs, ys))
        for a, b in zip(x, y):
            assert _same_bits(ldp._xlogy(a, b), xlogy(a, b)), (a, b)


def test_xlogy_matches_scipy_on_uniform_draws():
    # numpy's vectorised log differs from libm's in the last bit on a few
    # uniform draws in a thousand on some CPUs, which a log taken with
    # np.log would show here
    rng = np.random.default_rng(20)
    x, y = rng.random(20_000), rng.random(20_000)
    assert _same_bits(ldp._xlogy(x, y), xlogy(x, y))


def test_xlogy_at_zero_x():
    # the edge values, each without a warning (a RuntimeWarning fails the
    # suite); an ordered comparison with NaN would raise the invalid flag
    for y in (0.0, math.inf, 5e-324, -1.0):
        assert ldp._xlogy(0.0, y) == 0.0
    assert math.isnan(ldp._xlogy(0.0, math.nan))
    assert ldp._xlogy(5e-324, 0.0) == -math.inf
    assert math.isnan(ldp._xlogy(2.0, -1.0))


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


def _reference_log_psi(p, s):
    """ln psi(s) from its per-coordinate summands: each is formed in logs
    around its larger exponent, and the exponentials are summed with
    math.fsum."""
    d, lam = p.dim, p.lam
    terms = []
    for c in s:
        if lam > 0 and c < p.s0:
            terms.append(math.log(p.rho) - math.log(d))
            continue
        pair = [c, math.log(lam) - c] if lam > 0 else [c]
        top = max(pair)
        terms.append(top + math.log(math.fsum(math.exp(a - top) for a in pair))
                     - math.log(d) - math.log1p(lam))
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 4),
    lam=st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    tilt=st.lists(
        st.one_of(
            st.floats(-1e308, 1e308),
            st.floats(-50.0, 50.0),
            st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, "kink"]),
        ),
        min_size=4, max_size=4,
    ),
)
def test_log_psi_wide_tilts_match_fsum_reference(d, lam, tilt):
    # any finite tilt, huge, subnormal, of mixed signs or at the kink s0:
    # a finite value close to the reference, with no warning
    p = ModelParams(d, lam)
    kink = p.s0 if lam > 0 else -1e308
    s = [kink if c == "kink" else c for c in tilt[:d]]
    ref = _reference_log_psi(p, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ldp.log_psi(p, s)
    assert math.isfinite(value) and math.isfinite(ref), (value, ref)
    assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref)), (value, ref)


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


@pytest.mark.parametrize("lam", [1e-16, 2e-17, 1e-300, 5e-324, 0.3, 0.9])
def test_sigma_matrix_does_not_cancel_at_small_lam(lam):
    # at d = 1 Sigma is 4 lam/(1+lam)^2; formed as 1 - v^2 it read 2.2e-16
    # at lam = 1e-16 and 0 below about 1e-17
    exact_value = 4 * lam / (1 + lam) ** 2
    value = ldp.sigma_matrix(ModelParams(1, lam))[0, 0]
    assert value == pytest.approx(exact_value, rel=4e-16)
    # the off-diagonal entries stay -v_1^2, and only lam = 0 gives a zero Sigma
    sigma = ldp.sigma_matrix(ModelParams(3, lam))
    assert sigma[0, 1] == -float(ModelParams(3, lam).speed[0]) ** 2
    assert ldp.sigma_matrix(ModelParams(1, 0.0)).tolist() == [[0.0]]


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
        # a total beyond double range
        ([1e308, 1e308], True),
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
    # a slope beyond double range, over a segment of duration 1e-300
    steep = ldp.PiecewiseLinearPath(
        times=(0.0, 1e-300, 1.0), values=((0.0,), (1e10,), (1e10,))
    )
    assert math.isinf(ldp.path_rate_functional(P1, steep))
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
    # one batched query for the finite slopes: a middle segment outside the
    # domain, between two inside it, still makes the action infinite
    middle = ldp.PiecewiseLinearPath(
        times=(0.0, 0.25, 0.5, 1.0), values=((0.0,), (0.1,), (0.5,), (0.6,))
    )
    assert math.isinf(ldp.path_rate_functional(P1, middle))
    assert ldp._slope_rates(P1, middle.slopes())[1] == math.inf


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
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.0, math.nan, 1.0), values=((0.0,),) * 3)
    with pytest.raises(ValueError):
        ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0,), (math.inf,)))
    path = ldp.PiecewiseLinearPath(times=(0.0, 1.0), values=((0.0, 0.0), (0.1, 0.1)))
    with pytest.raises(ValueError):
        ldp.path_rate_functional(P1, path)


def test_path_json_round_trip():
    js = '[{"t": 0, "phi": [0, 0]}, {"t": 0.5, "phi": [0.2, 0.1]}, {"t": 1, "phi": [0.3, 0.3]}]'
    path = ldp.path_from_json(json.loads(js))
    assert path.dim == 2
    assert path.times == (0.0, 0.5, 1.0)
    parsed = ldp.path_from_json([{"t": 0, "phi": [0]}, {"t": 1, "phi": [0.5]}])
    assert parsed.values == ((0.0,), (0.5,))
    with pytest.raises(ValueError):
        ldp.path_from_json(json.loads('[{"t": 0}, {"t": 1}]'))


@pytest.mark.parametrize("text, key", [
    ('[{"t": 0, "phi": [0, 0]}, {"t": 1, "phi": "11"}]', "'phi' must be a list"),
    ('[{"t": 0, "phi": [0]}, {"t": 1, "phi": 0.5}]', "'phi' must be a list"),
    ('[{"t": 0, "phi": [0]}, {"t": 1, "phi": null}]', "'phi' must be a list"),
    ('[{"t": 0, "phi": [0, 0]}, {"t": true, "phi": [0.2, 0.1]}]', "'t' entries"),
    ('[{"t": 0, "phi": [0, 0]}, {"t": "1", "phi": [0.2, 0.1]}]', "'t' entries"),
    ('[{"t": 0, "phi": [0, 0]}, {"t": 1, "phi": ["0.2", "0.1"]}]', "'phi' entries"),
    ('[{"t": 0, "phi": [false, 0]}, {"t": 1, "phi": [0.2, 0.1]}]', "'phi' entries"),
    ('[{"t": 0, "phi": [0, 0]}, {"t": 1, "phi": [0.2, [0.1]]}]', "'phi' entries"),
    # integers beyond double range
    pytest.param('[{"t": 0, "phi": [0]}, {"t": 1, "phi": [-' + "9" * 401 + ']}]',
                 "'phi' entries", id="phi-401-digits"),
    pytest.param('[{"t": 0, "phi": [0]}, {"t": ' + "9" * 401 + ', "phi": [1]}]',
                 "'t' entries", id="t-401-digits"),
])
def test_path_json_takes_only_numbers(text, key):
    # a string or a boolean is not read as a number, nor a string as a
    # list of digits
    with pytest.raises(ValueError, match=key):
        ldp.path_from_json(json.loads(text))


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
        ldp.ldp_consistency(P1, 0.9, [0])
    # a horizon is never truncated to an integer, nor read from a bool
    for horizons in ([10.5], [10, 20.0], [True]):
        with pytest.raises(ValueError, match="horizons must be integers"):
            ldp.ldp_consistency(P1, 0.9, horizons)


def test_consistency_row_dict_keys(capsys):
    argv = ["ldp-consistency", "--dim", "1", "--lambda", "0.25", "--a", "0.9",
            "--n-list", "50"]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert list(row) == sorted(["n", "tail_prob", "empirical_rate", "limit_rate", "gap"])
    direct = ldp.ldp_consistency(P1, 0.9, [50])[0]
    assert row == {key: getattr(direct, key) for key in row}


def test_consistency_beyond_two_dimensions():
    rows = ldp.ldp_consistency(ModelParams(3, 0.5), 0.5, [10, 20])
    assert [r.n for r in rows] == [10, 20]
    for r in rows:
        assert all(math.isfinite(v) for v in (r.tail_prob, r.empirical_rate,
                                              r.limit_rate, r.gap))
        assert r.limit_rate > 0.0


# ---------------------------------------------------------------------------
# the scalar dual root against the earlier solvers
# ---------------------------------------------------------------------------

# The projected Newton / bisection solver that the scalar dual root
# replaced, kept as a reference: it evaluates the objective at a feasible
# tilt, so its value bounds the supremum from below wherever it converges.
_KKT_TOL = 1e-10
_MAX_ITERATIONS = 100
_MAX_BACKTRACKS = 40


def _solve_bisection(p: ModelParams, x: float) -> tuple[float, int]:
    lam = p.lam

    def residual(s: float) -> float:
        up, down = math.exp(s), lam * math.exp(-s)
        return x - (up - down) / (up + down)

    lo, hi, steps = p.s0, p.s0 + 1.0, 0
    while residual(hi) > 0.0:
        lo, hi = hi, hi + 2.0 * (hi - p.s0)
        steps += 1
        if steps > _MAX_ITERATIONS:
            raise ConvergenceError("bisection bracket search exhausted its budget")
    mid = 0.5 * (lo + hi)
    for used in range(1, _MAX_ITERATIONS + 1):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= _KKT_TOL:
            return mid, used
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection stalled at residual {residual(mid):.3e} > {_KKT_TOL:.1e}"
    )


def _solve_newton(
    p: ModelParams, x: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, int]:
    lam, d = p.lam, p.dim
    norm = d * (1.0 + lam)
    base = (d - int(free.sum())) * p.rho / d
    xf = x[free]

    def parts(t: np.ndarray):
        with np.errstate(over="ignore"):
            up = np.exp(t) / norm
            down = lam * np.exp(-t) / norm
            big_h = base + float(np.sum(up + down))
        return up, down, big_h

    def objective(t: np.ndarray) -> float:
        _, _, big_h = parts(t)
        return float(xf @ t) - math.log(big_h)

    t = np.zeros(xf.size)
    for used in range(1, _MAX_ITERATIONS + 1):
        up, down, big_h = parts(t)
        grad = xf - (up - down) / big_h
        if float(np.max(np.abs(grad))) <= _KKT_TOL:
            return t, used - 1
        q = (up - down) / big_h
        hess = np.diag((up + down) / big_h) - np.outer(q, q)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError("projected Newton met a singular Hessian") from None
        g0 = objective(t)
        predicted = float(grad @ step)
        if predicted <= 1e-13 * (1.0 + abs(g0)) and float(np.max(np.abs(step))) <= 1.0:
            t = np.maximum(t + step, p.s0)
            continue
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            cand = np.maximum(t + alpha * step, p.s0)
            gain = float(grad @ (cand - t))
            if objective(cand) >= g0 + 1e-4 * gain:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search exhausted its backtracking budget")
        t = cand
    raise ConvergenceError(
        f"projected Newton stalled above the {_KKT_TOL:.1e} stationarity tolerance"
    )


def _reference_rate(p: ModelParams, x) -> float:
    """The rate as the earlier solver computed it; raises ConvergenceError
    where that solver fails."""
    x = _finite_rows("x", [x], p.dim)[0]
    x[np.abs(x) <= ldp.SIMPLEX_TOL] = 0.0
    domain_class = ldp._classify(p, x)
    if domain_class == "outside":
        return math.inf
    if p.lam == 0.0:
        return max(0.0, ldp.rate_closed_form(p, x))
    if domain_class == "simplex_boundary":
        entropy = float(np.sum(xlogy(x, np.where(x > 0.0, x, 1.0))))
        face = 0.5 * math.log(p.lam) - math.log(p.rho) + math.log(2 * p.dim) + entropy
        return max(0.0, face)
    free = x > 0.0
    s_star = np.full(p.dim, p.s0)
    if free.any():
        if p.dim == 1:
            s_star[0] = _solve_bisection(p, float(x[0]))[0]
        else:
            s_star[free] = _solve_newton(p, x, free)[0]
    return max(0.0, float(x @ s_star) - ldp.log_psi(p, s_star))


def _reference_halfspace(p: ModelParams, a: float) -> float:
    """inf of the reference rate over {x_1 >= a} by a bounded scalar search
    along the face x_1 = a (d <= 2)."""
    if a <= float(p.speed[0]) + 1e-15:
        return 0.0
    if p.dim == 1:
        return _reference_rate(p, [a])
    width = 1.0 - a

    def on_face(x2: float) -> float:
        return _reference_rate(p, [a, x2])

    best = min(on_face(0.0), on_face(width) if width > 0.0 else math.inf)
    if width > 0.0:
        res = minimize_scalar(
            on_face, bounds=(0.0, width), method="bounded",
            options={"xatol": 1e-10},
        )
        best = min(best, float(res.fun))
    return best


LAMBDAS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
# totals of |x|: anywhere inside, on the face |x| = 1, just inside it, and
# just or far outside it
TOTALS = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k),
    st.sampled_from([1.0, 1.0 - 1.5e-7, 1.0 - 2e-12, 1.0 + 1e-9, 1.5]),
)
# coordinate weights: on a coordinate face, within or just past the snap
# tolerance of one, or well inside
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1e-13, 1e-11, 1e-9]),
    st.floats(1e-6, 1.0),
)


@st.composite
def query_points(draw, d: int):
    w = np.array(draw(st.lists(WEIGHTS, min_size=d, max_size=d)))
    return w / w.sum() * draw(TOTALS) if w.sum() > 0.0 else w


@st.composite
def rate_queries(draw):
    d = draw(st.integers(1, 6))
    lam = draw(LAMBDAS)
    assume(not (d == 1 and lam == 0.0))
    x = draw(query_points(d))
    return ModelParams(d, lam), x, draw(st.sampled_from([math.nan, math.inf, -math.inf]))


def _objective(p: ModelParams, s: np.ndarray, x: np.ndarray) -> float:
    """<s, x> - ln psi(s), written in t = s - s0 for lam > 0: with
    psi = (rho/d) sum cosh(t_i) and ln(rho) = ln 2 + s0 - ln(1 + lam) the
    terms of size |s0| cancel in closed form, not in rounding."""
    if p.lam == 0.0:
        return float(s @ x) - ldp.log_psi(p, s)
    t = np.maximum(s - p.s0, 0.0)
    return (float(t @ x) + p.s0 * (float(x.sum()) - 1.0) + math.log1p(p.lam)
            - math.log(2.0) + math.log(p.dim) - math.log(float(np.sum(np.cosh(t)))))


@given(rate_queries())
@settings(max_examples=600, deadline=None)
def test_scalar_root_against_reference_and_closed_form(query):
    p, x, bad = query
    with pytest.raises(ValueError, match="finite"):
        ldp.rate_function(p, np.where(np.arange(p.dim) == 0, bad, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ldp.rate_function(p, x)
    snapped = np.where(np.abs(x) <= ldp.SIMPLEX_TOL, 0.0, x)
    total = float(snapped.sum())
    inside = bool(np.all(snapped >= 0.0)) and (
        abs(total - 1.0) <= ldp.SIMPLEX_TOL if p.lam == 0.0
        else total <= 1.0 + ldp.SIMPLEX_TOL
    )
    # (d) no silent numbers: non-finite input raises (above), the value is
    # finite and >= 0 inside the domain and +inf outside, with no warning
    if not inside:
        assert res.value == math.inf and res.domain_class == "outside"
        return
    assert math.isfinite(res.value) and res.value >= 0.0
    # a total within tolerance of 1 is rescaled onto the face |x| = 1
    on_face = abs(total - 1.0) <= ldp.SIMPLEX_TOL
    point = snapped / total if on_face else snapped
    if on_face:
        # the face has closed formulas, old and new alike
        ref = _reference_rate(p, point)
        assert abs(res.value - ref) <= 1e-13 * (1.0 + abs(ref))
    else:
        # (a) where the reference solver converges its value is attained
        # at a feasible tilt, so it bounds the supremum from below
        try:
            ref = _reference_rate(p, x)
        except ConvergenceError:
            ref = None
        if ref is not None:
            assert res.value >= ref - 1e-13 * (1.0 + abs(ref))
    # (b) the value is the objective at the returned maximizer
    if res.argmax_s is not None:
        s = np.asarray(res.argmax_s)
        attained = _objective(p, s, point)
        assert abs(res.value - max(0.0, attained)) <= 1e-13 * (1.0 + abs(res.value))
        assert res.kkt_residual <= 1e-12
    # (c) the closed forms, away from the face |x| = 1
    if p.dim <= 2 and p.lam > 0.0 and total <= 1.0 - 1e-6:
        closed = ldp.rate_closed_form(p, snapped)
        assert abs(res.value - closed) <= 1e-12 * (1.0 + abs(closed))


@given(
    d=st.integers(1, 2),
    lam=st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_halfspace_infimum_matches_face_search(d, lam, frac):
    assume(not (d == 1 and lam == 0.0))
    p = ModelParams(d, lam)
    v1 = float(p.speed[0])
    a = v1 + frac * (1.0 - v1)
    limit = ldp._halfspace_infimum(p, a)
    ref = _reference_halfspace(p, a)
    assert abs(limit - ref) <= 1e-12 * (1.0 + abs(ref))


@given(
    lam=st.one_of(st.just(1e-300), st.floats(1e-6, 0.99)),
    frac=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_halfspace_infimum_d3_is_rate_at_tilted_mean(lam, frac, seed):
    p = ModelParams(3, lam)
    v1 = float(p.speed[0])
    a = v1 + frac * (1.0 - v1)
    limit = ldp._halfspace_infimum(p, a)
    # the maximizing tilt (ln z, 0, 0) of a*s - ln psi(s, 0, 0) and the
    # mean x* it tilts the walk to, which sits on the face x_1 = a
    b = 2.0 * a * (1.0 + lam)
    z = (b + math.sqrt(b * b + 4.0 * (1.0 - a) * lam * (1.0 + a))) / (2.0 * (1.0 - a))
    tilt = [math.log(z), 0.0, 0.0]
    scale = 3.0 * (1.0 + lam) * ldp.psi(p, tilt)
    x_star = np.array([z - lam / z, 1.0 - lam, 1.0 - lam]) / scale
    assert x_star[0] == pytest.approx(a, rel=1e-12)
    at_star = ldp.rate_function(p, x_star).value
    assert abs(limit - at_star) <= 1e-12 * (1.0 + abs(limit))
    rng = np.random.default_rng(seed)
    for _ in range(5):
        rest = rng.random(2) + 1e-3
        rest *= (1.0 - a) * rng.random() / rest.sum()
        assert limit <= ldp.rate_function(p, [a, *rest]).value + 1e-12


def _bits(res: ldp.RateResult) -> tuple:
    """Every field of a rate result, each float by its bit pattern."""
    def exact_float(v):
        assert type(v) is float
        return v.hex()

    s = None if res.argmax_s is None else tuple(map(exact_float, res.argmax_s))
    return (exact_float(res.value), s, res.at_infinity, res.domain_class,
            res.iterations, exact_float(res.kkt_residual))


def _assert_batch_is_one_point(p: ModelParams, points) -> None:
    kept = np.copy(points)
    batch = ldp.rate_functions(p, points)
    assert np.array_equal(points, kept)     # the caller's points are not snapped
    assert all(len(column) == len(points) for column in batch.values())
    for i, x in enumerate(points):
        row = ldp.RateResult(**{name: column[i] for name, column in batch.items()})
        assert _bits(row) == _bits(ldp.rate_function(p, x)), np.asarray(x).tolist()


@given(query=rate_queries(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_batch_matches_one_point_bit_for_bit(query, data):
    # rows of every kind (interior, coordinate faces, the face |x| = 1,
    # within the snap tolerance, outside) share one Newton solve, and each
    # row's fields must be those of its one-point query
    p, x, _ = query
    more = data.draw(st.lists(query_points(p.dim), max_size=7))
    _assert_batch_is_one_point(p, np.array([x, *more]))


@pytest.mark.parametrize("d, grid, lam", [
    (d, grid, lam)
    for d, grid in [(1, 41), (2, 13), (3, 6), (4, 4)]
    for lam in [0.0, 1e-300, 0.3, 0.5, 0.9]
    if not (d == 1 and lam == 0.0)     # no rate function for that walk
])
def test_batch_matches_one_point_on_full_grids(d, grid, lam):
    axis = np.linspace(0.0, 1.0, grid)
    points = np.stack([m.ravel() for m in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)
    _assert_batch_is_one_point(ModelParams(d, lam), points)


def test_batch_of_no_points_and_of_scalars():
    p = ModelParams(2, 0.5)
    empty = {field.name: [] for field in dataclasses.fields(ldp.RateResult)}
    assert ldp.rate_functions(p, np.empty((0, 2))) == empty
    # an empty sequence is no points at every dimension
    for q in (p, ModelParams(3, 0.5)):
        assert ldp.rate_functions(q, []) == ldp.rate_functions(q, ()) == empty
    # batches that leave the face, the maximizer rows or the domain empty
    for q, rows in [(p, [[0.9, 0.5], [-0.1, 0.2]]),    # outside only
                    (p, [[0.5, 0.5], [1.0, 0.0]]),     # face only
                    (p, [[0.1, 0.2], [0.3, 0.0]]),     # inside, off the face
                    (ModelParams(2, 0.0), [[1.0, 0.0]]),
                    (ModelParams(2, 0.0), [[0.2, 0.3]])]:
        _assert_batch_is_one_point(q, np.array(rows))
    _assert_batch_is_one_point(P1, [0.2, 0.5])
    with pytest.raises(ValueError, match=r"must have 2 coordinates, got shape \(3,\)"):
        ldp.rate_functions(p, [[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError, match=r"finite, got \[0.1, inf\]"):
        ldp.rate_functions(p, [[0.1, 0.2], [0.1, math.inf]])


@pytest.mark.parametrize("p, points", [
    (ModelParams(2, 0.5), [[0.1, 0.2], [0.5, 0.5], [0.3, 0.0], [0.9, 0.5], [1.0, 0.0]]),
    (ModelParams(3, 0.0), [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.1, 0.1, 0.1]]),
    (P1, [0.2, 1.0, 0.0, 1.5]),
])
def test_batch_columns_are_plain_python(p, points):
    # one list per RateResult field, in field order, of the plain Python
    # items cli._json renders; a numpy scalar would make it fail
    batch = ldp.rate_functions(p, points)
    assert list(batch) == [field.name for field in dataclasses.fields(ldp.RateResult)]
    for column in batch.values():
        assert type(column) is list and len(column) == len(points)
    assert {type(v) for v in batch["value"] + batch["kkt_residual"]} == {float}
    assert {type(n) for n in batch["iterations"]} == {int}
    assert {type(s) for s in batch["argmax_s"]} == {list, type(None)}
    assert {type(f) for f in batch["at_infinity"]} == {bool}
    assert {type(c) for c in batch["domain_class"]} == {str}
