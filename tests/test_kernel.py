"""Unit tests for the one-step transition kernels."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biasedwalk import (
    ModelParams,
    exact,
    ldp,
    drift,
    drifted_kernel,
    full_kernel,
    kappa,
    reflected_kernel,
    simulate,
)
from biasedwalk.exact import enumerate_oracle, fold_to_orthant
from biasedwalk.kernel import _moves

LAMBDAS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9]


def ball(d: int, radius: int):
    """All sites of Z^d with lattice norm at most radius."""
    for v in itertools.product(range(-radius, radius + 1), repeat=d):
        if sum(abs(c) for c in v) <= radius:
            yield v


def orthant_ball(d: int, radius: int):
    for y in itertools.product(range(radius + 1), repeat=d):
        if sum(y) <= radius:
            yield y


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_full_kernel_example_d2():
    p = ModelParams(2, 0.5)
    dist = full_kernel(p, (1, 0))
    expected = {(0, 0): 1 / 7, (2, 0): 2 / 7, (1, 1): 2 / 7, (1, -1): 2 / 7}
    assert set(dist) == set(expected)
    for u, prob in expected.items():
        assert math.isclose(dist[u], prob, rel_tol=0, abs_tol=1e-15)


def test_full_kernel_origin_uniform():
    for d in (1, 2, 3):
        for lam in LAMBDAS:
            dist = full_kernel(ModelParams(d, lam), (0,) * d)
            assert len(dist) == 2 * d
            assert all(math.isclose(q, 1 / (2 * d), abs_tol=1e-15) for q in dist.values())


def test_full_kernel_lam0_never_steps_inward():
    p = ModelParams(2, 0.0)
    dist = full_kernel(p, (2, -1))
    assert set(dist) == {(3, -1), (2, -2)}
    assert all(math.isclose(q, 0.5, abs_tol=1e-15) for q in dist.values())


def test_reflected_kernel_example_d2():
    p = ModelParams(2, 0.5)
    dist = reflected_kernel(p, (1, 0))
    expected = {(2, 0): 2 / 7, (0, 0): 1 / 7, (1, 1): 4 / 7}
    assert set(dist) == set(expected)
    for u, prob in expected.items():
        assert math.isclose(dist[u], prob, abs_tol=1e-15)


def test_reflected_kernel_origin():
    for d in (1, 2, 4):
        dist = reflected_kernel(ModelParams(d, 0.3), (0,) * d)
        assert len(dist) == d
        assert all(math.isclose(q, 1 / d, abs_tol=1e-15) for q in dist.values())


def test_drift_examples():
    np.testing.assert_allclose(drift(ModelParams(2, 0.5), (1, 0)), [1 / 7, 4 / 7], atol=1e-15)
    np.testing.assert_allclose(drift(ModelParams(2, 0.0), (0, 3)), [2 / 3, 1 / 3], atol=1e-15)


def test_drifted_kernel_example():
    p = ModelParams(2, 0.25)
    dist = drifted_kernel(p, (0, 0))
    assert math.isclose(dist[(1, 0)], 0.4, abs_tol=1e-15)
    assert math.isclose(dist[(-1, 0)], 0.1, abs_tol=1e-15)
    assert math.isclose(dist[(0, 1)], 0.4, abs_tol=1e-15)
    assert math.isclose(dist[(0, -1)], 0.1, abs_tol=1e-15)


def test_model_constants():
    p = ModelParams(1, 0.25)
    assert math.isclose(p.rho, 0.8, abs_tol=1e-15)
    assert math.isclose(p.s0, 0.5 * math.log(0.25), abs_tol=1e-15)
    assert ModelParams(3, 0.0).s0 == -math.inf
    np.testing.assert_allclose(ModelParams(2, 0.5).speed, [1 / 6, 1 / 6], atol=1e-15)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_full_kernel_mass_and_support():
    for d in (1, 2, 3):
        for lam in LAMBDAS:
            p = ModelParams(d, lam)
            for v in ball(d, 4):
                dist = full_kernel(p, v)
                assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
                for u, prob in dist.items():
                    assert prob > 0.0
                    assert sum(abs(a - b) for a, b in zip(u, v)) == 1


def test_reflected_matches_folded_full_kernel():
    # The reflected law at y must equal the full law at any signed lift of y,
    # pushed through coordinate-wise absolute value.
    for d in (1, 2, 3):
        for lam in LAMBDAS:
            p = ModelParams(d, lam)
            for y in orthant_ball(d, 3):
                refl = reflected_kernel(p, y)
                for signs in itertools.product((-1, 1), repeat=d):
                    v = tuple(s * c for s, c in zip(signs, y))
                    folded: dict[tuple[int, ...], float] = {}
                    for u, prob in full_kernel(p, v).items():
                        t = tuple(abs(c) for c in u)
                        folded[t] = folded.get(t, 0.0) + prob
                    assert set(folded) == set(refl)
                    for t in refl:
                        assert math.isclose(folded[t], refl[t], abs_tol=1e-12)


def test_drift_is_mean_displacement():
    for d in (1, 2, 3):
        for lam in LAMBDAS:
            p = ModelParams(d, lam)
            for y in orthant_ball(d, 3):
                mean = np.zeros(d)
                for u, prob in reflected_kernel(p, y).items():
                    mean += prob * (np.array(u) - np.array(y))
                np.testing.assert_allclose(mean, drift(p, y), atol=1e-12)


def test_drifted_kernel_translation_invariant():
    p = ModelParams(3, 0.6)
    base = drifted_kernel(p, (0, 0, 0))
    shifted = drifted_kernel(p, (5, -2, 7))
    for u, prob in shifted.items():
        rel = (u[0] - 5, u[1] + 2, u[2] - 7)
        assert math.isclose(base[rel], prob, abs_tol=1e-15)


def test_full_kernel_sign_symmetry():
    # Flipping coordinate signs of the start site flips the law accordingly.
    p = ModelParams(2, 0.3)
    a = full_kernel(p, (2, -1))
    b = full_kernel(p, (-2, 1))
    for u, prob in a.items():
        assert math.isclose(b[(-u[0], -u[1])], prob, abs_tol=1e-15)


def test_validation_errors():
    with pytest.raises(ValueError):
        ModelParams(0, 0.5)
    with pytest.raises(ValueError):
        ModelParams(True, 0.5)
    with pytest.raises(ValueError):
        ModelParams(2, 1.0)
    with pytest.raises(ValueError):
        ModelParams(2, -0.1)
    p = ModelParams(2, 0.5)
    with pytest.raises(ValueError):
        full_kernel(p, (1,))
    with pytest.raises(ValueError):
        reflected_kernel(p, (1, -1))
    with pytest.raises(ValueError):
        drift(p, (-1, 0))
    # the check the exact sweeps and simulation plans share: integer,
    # non-bool coordinates, in the int64 range
    for call, site, message in [
        (reflected_kernel, (0.5, 0), "integer coordinates"),
        (full_kernel, (True, 0), "integer coordinates"),
        (drifted_kernel, (0, np.float64(1.0)), "integer coordinates"),
        (drift, (1, None), "integer coordinates"),
        (full_kernel, (2**63, 0), "int64 range"),
        (drifted_kernel, (0, -2**63), "int64 range"),
    ]:
        with pytest.raises(ValueError, match=f"^site .*{message}"):
            call(p, site)
    assert full_kernel(p, (np.int64(2**63 - 1), 0))[(2**63, 0)] == 1 / 3.5


P2 = ModelParams(2, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: ldp.rate_function(P2, ["0.3", "0.2"]), "x entries must be real numbers"),
    (lambda: ldp.rate_function(P2, [True, 0.0]), "x entries must be real numbers"),
    (lambda: ldp.rate_functions(P2, [["0.2", "0.1"]]), "x entries must be real numbers"),
    (lambda: ldp.rate_functions(P2, np.array([[True, False]])), "x entries must be real"),
    (lambda: ldp.rate_function(P2, [10**400, 0]), "x entries must lie within double range"),
    (lambda: exact.log_mgf(P2, (0, 0), 4, (True, 0.0)), "s entries must be real numbers"),
    (lambda: ldp.log_psi(P2, ["1", "0"]), "s entries must be real numbers"),
    (lambda: ldp.rate_closed_form(P2, [np.bool_(True), 0.1]), "x entries must be real"),
    (lambda: ldp.PiecewiseLinearPath(("0", 1), ((0,), (0.5,))), "'t' entries must be real"),
    (lambda: ldp.PiecewiseLinearPath((0, True), ((0,), (0.5,))), "'t' entries must be real"),
    (lambda: ldp.PiecewiseLinearPath((0, 1), ((0,), ("0.5",))), "'phi' entries must be real"),
    (lambda: ModelParams(2, False), "lam must lie in"),
    (lambda: ModelParams(2, "0.5"), "lam must lie in"),
    (lambda: ModelParams(2.0, 0.5), "dim must be a positive integer"),
    (lambda: ldp.ldp_consistency(P2, True, [10]), "threshold a must lie in"),
    (lambda: ldp.ldp_consistency(P2, "0.5", [4]), "threshold a must lie in"),
    (lambda: exact.return_probability(P2, "4"), "step count must be an integer"),
    (lambda: exact.check_domination_lower(P2, ("a", "b"), 3), "start must have integer"),
    (lambda: kappa("a0"), "^kappa: site must have integer coordinates, got 'a0'$"),
    (lambda: kappa([0.5, 0]), "^kappa: site must have integer coordinates"),
    (lambda: kappa([True, False]), "^kappa: site must have integer coordinates"),
], ids=["rate-str", "rate-bool", "rates-str", "rates-bool-array", "rate-huge-int", "mgf-bool",
        "psi-str", "closed-form-numpy-bool", "path-t-str", "path-t-bool", "path-phi-str",
        "lam-bool", "lam-str", "dim-float", "consistency-a-bool", "consistency-a-str",
        "return-prob-str", "lower-start-str", "kappa-str", "kappa-float", "kappa-bool"])
def test_numbers_are_real_numbers_not_strings_or_bools(call, message):
    # each was read as a number, or failed with a TypeError, before the
    # rule moved into kernel
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_scalars_are_numbers():
    p = ModelParams(np.int64(2), np.float64(0.5))
    assert p == P2 and hash(p) == hash(P2)
    assert type(p.dim) is int and type(p.lam) is float
    x = [np.float32(0.25), np.int64(0)]
    assert ldp.rate_function(p, x) == ldp.rate_function(p, [0.25, 0.0])
    assert exact.log_mgf(p, (0, 0), 4, x) == exact.log_mgf(p, (0, 0), 4, (0.25, 0.0))
    plan = simulate.SimPlan(P2, (0, 0), 3, 2)
    for start in (np.array([0, 0]), (np.int64(0), 0)):
        other = simulate.SimPlan(P2, start, 3, 2)
        assert other == plan and hash(other) == hash(plan)
        assert type(other.start) is tuple and all(type(c) is int for c in other.start)


@pytest.mark.parametrize("call, message", [
    (lambda: exact.propagate(P2, 5, 3), "^start must have 2 coordinates, got 5$"),
    (lambda: simulate.SimPlan(P2, 0, 3, 3), "^start must have 2 coordinates, got 0$"),
    (lambda: full_kernel(P2, 7), "^site must have 2 coordinates, got 7$"),
    (lambda: exact.log_mgf(P2, 0, 3, (0.0, 0.0)), "^start must have 2 coordinates, got 0$"),
    (lambda: exact.check_domination_lower(P2, 1, 3), "^start must have 2 coordinates, got 1$"),
    (lambda: ldp.PiecewiseLinearPath((0, 1), (0, 0.5)), "^'phi' rows must be sequences"),
    (lambda: ldp.ldp_consistency(P2, 0.5, 10), "^horizons must be integers, got 10$"),
    (lambda: ldp.PiecewiseLinearPath(0, ((0, 0), (1, 0))), "^need matching times and values"),
    (lambda: ldp.PiecewiseLinearPath((0, 1), 5), "^need matching times and values"),
    (lambda: ldp.path_from_json(np.array([1.0, 2.0])), "^each breakpoint needs keys 't' and 'phi'$"),
    (lambda: kappa(3), "^kappa: site must be a sequence of coordinates, got 3$"),
], ids=["propagate", "sim-plan", "full-kernel", "log-mgf", "lower-start", "path-phi",
        "consistency-horizons", "path-times", "path-values", "path-json-array", "kappa"])
def test_a_scalar_where_a_sequence_belongs_is_refused_by_name(call, message):
    # each raised a TypeError (from len(), list() or iteration) or an
    # IndexError before it was checked
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# randomised invariants
# ---------------------------------------------------------------------------


@given(
    d=st.integers(min_value=1, max_value=4),
    lam=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_kernel_mass_property(d, lam, data):
    v = tuple(data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(d))
    p = ModelParams(d, lam)
    dist = full_kernel(p, v)
    assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
    assert all(0.0 < q <= 1.0 for q in dist.values())
    y = tuple(abs(c) for c in v)
    refl = reflected_kernel(p, y)
    assert math.isclose(sum(refl.values()), 1.0, abs_tol=1e-12)
    dz = drifted_kernel(p, v)
    assert math.isclose(sum(dz.values()), 1.0, abs_tol=1e-12)


@given(
    d=st.integers(1, 4),
    lam=st.one_of(
        st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
)
@settings(max_examples=60, deadline=None)
@example(d=3, lam=0.3)
def test_move_table_matches_rational_oracle(d, lam):
    # The per-site law of every walk against the one-step law of
    # enumerate_oracle, whose Fraction kernel is coded apart from it: the
    # signed walk at each sign pattern, the reflected chain at each zero
    # pattern (the oracle's law folded onto the orthant), and the drifted
    # walk, which moves as the signed walk does off every hyperplane.  The
    # law's D rounds at most twice and the division once, so each
    # probability is within 3 units of rounding of the exact one, or half
    # the least subnormal below it.  The law takes a site as plain ints
    # and a batch of them as an int64 array per axis, with the same bits
    p = ModelParams(d, lam)
    sites = {
        "signed": [(v, enumerate_oracle(p, v, 1))
                   for v in itertools.product((-1, 0, 1), repeat=d)],
        "reflected": [(y, fold_to_orthant(enumerate_oracle(p, y, 1)))
                      for y in itertools.product((0, 1), repeat=d)],
        "drifted": [((1,) * d, enumerate_oracle(p, (1,) * d, 1))],
    }
    for walk, cases in sites.items():
        batch = tuple(np.array(c, dtype=np.int64) for c in zip(*(v for v, _ in cases)))
        widths_all, big_d_all = _moves(p, walk, batch)
        if walk == "drifted":
            # rounded as written, d + lam d differs at d = 3, lam = 0.3
            assert big_d_all == d * (1.0 + lam)
        for k, (v, law) in enumerate(cases):
            widths, big_d = _moves(p, walk, v)
            assert np.array_equal(big_d, np.broadcast_to(big_d_all, len(cases))[k])
            for i, pair in enumerate(widths):
                for step, w, w_all in zip((-1, 1), pair, widths_all[i]):
                    assert w == w_all[k]
                    target = v[:i] + (v[i] + step,) + v[i + 1:]
                    want = law.get(target, Fraction(0))
                    got = Fraction(float(w) / float(big_d))
                    assert abs(got - want) <= 3 * want / 2**53 + Fraction(1, 2**1075), (
                        walk, v, i, step, float(got), float(want))
