from itertools import islice

import numpy as np
import pytest

from rpos import (
    WeightedFunction,
    apply,
    h_transform,
    orbit,
    power_iterate,
    tilt_submarkov,
    weighted_norm,
)

from conftest import make_operator, perron_oracle, random_kernel


class TestTilt:
    def test_hand_example(self, two_state):
        rec = tilt_submarkov(two_state["P"], two_state["one"], c=0.7)
        expect = np.array([[5.0, 2.0], [1.0, 6.0]]) / 7.0
        assert np.allclose(rec.tilted.kernel, expect, atol=1e-15)
        assert np.allclose(rec.row_masses, 1.0, atol=1e-12)
        assert rec.sub_markov

    def test_default_normalizer_is_smallest(self, rng):
        for _ in range(20):
            P = make_operator(random_kernel(rng, 6))
            psi = WeightedFunction(P.space, rng.uniform(0.2, 3.0, 6))
            rec = tilt_submarkov(P, psi)
            assert rec.sub_markov
            assert rec.max_row_mass <= 1.0 + 1e-12
            # smallest: some row saturates the unit mass
            assert rec.max_row_mass >= 1.0 - 1e-12

    def test_doubled_normalizer_halves_masses(self, rng):
        P = make_operator(random_kernel(rng, 5))
        psi = WeightedFunction(P.space, rng.uniform(0.2, 3.0, 5))
        c = 2.0 * weighted_norm(apply(P, psi), psi)
        rec = tilt_submarkov(P, psi, c=c)
        assert rec.sub_markov
        assert rec.max_row_mass <= 0.5 + 1e-12

    def test_n_step_consistency(self, rng):
        P = make_operator(random_kernel(rng, 5))
        psi = WeightedFunction(P.space, rng.uniform(0.2, 2.0, 5))
        g = WeightedFunction(P.space, rng.normal(size=5))
        rec = tilt_submarkov(P, psi)
        tilted = orbit(rec.tilted.kernel, g.values)
        base = orbit(P.kernel, g.values * psi.values)
        for n, (lhs, rhs) in enumerate(islice(zip(tilted, base), 21)):
            if n in (1, 5, 20):
                assert np.allclose(lhs, rhs / (rec.c**n * psi.values), rtol=1e-10)

    def test_sub_markov_criterion_matches_drift(self, rng):
        for _ in range(10):
            P = make_operator(random_kernel(rng, 6))
            psi = WeightedFunction(P.space, rng.uniform(0.2, 3.0, 6))
            c = rng.uniform(0.5, 2.0) * weighted_norm(apply(P, psi), psi)
            rec = tilt_submarkov(P, psi, c=c)
            drift_holds = apply(P, psi).values <= c * psi.values
            assert np.array_equal(rec.row_masses <= 1.0, drift_holds)

    def test_rejects_bad_inputs(self, two_state):
        with pytest.raises(ValueError):
            tilt_submarkov(
                two_state["P"], WeightedFunction(two_state["space"], [1.0, 0.0])
            )
        with pytest.raises(ValueError):
            tilt_submarkov(two_state["P"], two_state["one"], c=-1.0)


class TestHTransform:
    def test_hand_example(self, two_state):
        rec = h_transform(two_state["P"], two_state["eta"], 0.7)
        expect = np.array([[5.0, 2.0], [1.0, 6.0]]) / 7.0
        assert np.allclose(rec.transformed.kernel, expect, atol=1e-15)
        assert np.allclose(rec.row_masses, 1.0, atol=1e-12)
        assert rec.support.count == 2

    def test_degenerate_support(self):
        P = make_operator([[2.0, 0.0], [0.0, 1.0]])
        eta = WeightedFunction(P.space, [1.0, 0.0])
        rec = h_transform(P, eta, 2.0)
        assert list(rec.support.indices) == [0]
        assert rec.transformed.kernel.shape == (1, 1)
        assert np.allclose(rec.transformed.kernel, [[1.0]], atol=0)

    def test_tiny_eigenvalue_does_not_overflow(self):
        # theta0 * eta(0) = 1e-311 is subnormal; 1 / that overflows
        P = make_operator(np.diag([1e-300, 1e-300]))
        eta = WeightedFunction(P.space, [1e-11, 1.0])
        rec = h_transform(P, eta, 1e-300)
        assert np.allclose(rec.transformed.kernel, np.eye(2), rtol=0, atol=1e-15)

    def test_n_step_identity(self, rng):
        P = make_operator(random_kernel(rng, 6))
        theta, eta_vals, _, _ = perron_oracle(P.kernel)
        eta = WeightedFunction(P.space, eta_vals)
        rec = h_transform(P, eta, theta)
        g = WeightedFunction(rec.transformed.space, rng.normal(size=6))
        transformed = orbit(rec.transformed.kernel, g.values)
        base = orbit(P.kernel, eta_vals * g.values)
        for n, (lhs, rhs) in enumerate(islice(zip(transformed, base), 11)):
            if n in (1, 4, 10):
                assert np.allclose(lhs, rhs / (theta**n * eta_vals), rtol=1e-10)

    def test_conservativity_scales_with_residual(self, rng):
        P = make_operator(random_kernel(rng, 8))
        psi = WeightedFunction(P.space, np.ones(8))
        triple = power_iterate(P, psi, tol=1e-13)
        rec = h_transform(P, triple.eta, triple.theta0, psi1=psi)
        bound_C = weighted_norm(psi, triple.eta) / triple.theta0
        assert np.max(np.abs(rec.row_masses - 1.0)) <= max(
            bound_C * triple.right_residual, 1e-14
        )

    def test_commuting_square(self, rng):
        # h-transform of the tilt equals the h-transform of the base operator
        P = make_operator(random_kernel(rng, 6))
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, 6))
        theta, eta_vals, _, _ = perron_oracle(P.kernel)
        eta = WeightedFunction(P.space, eta_vals)
        tilt = tilt_submarkov(P, psi)
        eta_q = WeightedFunction(P.space, eta_vals / psi.values)
        via_tilt = h_transform(tilt.tilted, eta_q, theta / tilt.c)
        direct = h_transform(P, eta, theta)
        assert np.allclose(
            via_tilt.transformed.kernel, direct.transformed.kernel, rtol=1e-10
        )

    def test_rejects_bad_inputs(self, two_state):
        with pytest.raises(ValueError):
            h_transform(two_state["P"], two_state["eta"], 0.0)
        with pytest.raises(ValueError):
            h_transform(
                two_state["P"], WeightedFunction(two_state["space"], [-0.1, 1.0]), 1.0
            )
        with pytest.raises(ValueError):
            h_transform(
                two_state["P"], WeightedFunction(two_state["space"], [0.0, 0.0]), 1.0
            )
