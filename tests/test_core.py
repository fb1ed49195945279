from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpos import (
    Measure,
    NonFiniteError,
    SpaceMismatchError,
    StateSpace,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
    apply,
    orbit,
    restrict_space,
    weighted_norm,
)

from conftest import make_operator, random_kernel, unit_space


class TestStateSpace:
    def test_invariants(self):
        with pytest.raises(ValueError):
            StateSpace([[0.0], [0.0]], [1.0, 1.0])  # duplicate points
        with pytest.raises(ValueError):
            StateSpace([[0.0], [1.0]], [1.0, 0.0])  # nonpositive weight
        with pytest.raises(ValueError):
            StateSpace(np.empty((0, 1)), [])

    def test_flat_points_become_1d(self):
        sp = StateSpace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert sp.dim == 1 and sp.size == 3

    def test_immutable(self):
        sp = unit_space(3)
        with pytest.raises(ValueError):
            sp.points[0, 0] = 5.0


class TestApply:
    def test_identity(self):
        P = make_operator(np.eye(2))
        f = WeightedFunction(P.space, [3.0, -1.0])
        assert np.array_equal(apply(P, f).values, [3.0, -1.0])

    def test_hand_row_sum(self, two_state):
        out = apply(two_state["P"], two_state["one"])
        assert np.allclose(out.values, [0.7, 0.7], atol=1e-15)

    def test_zero_function(self, two_state):
        z = WeightedFunction(two_state["space"], [0.0, 0.0])
        assert np.array_equal(apply(two_state["P"], z).values, [0.0, 0.0])

    def test_positivity_and_linearity(self, rng):
        P = make_operator(random_kernel(rng, 6))
        f = WeightedFunction(P.space, rng.uniform(0, 1, 6))
        g = WeightedFunction(P.space, rng.uniform(0, 1, 6))
        assert np.all(apply(P, f).values >= 0)
        lhs = apply(P, WeightedFunction(P.space, 2 * f.values + g.values)).values
        rhs = 2 * apply(P, f).values + apply(P, g).values
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_space_mismatch(self, two_state):
        other = WeightedFunction(unit_space(3), [1.0, 1.0, 1.0])
        with pytest.raises(SpaceMismatchError):
            apply(two_state["P"], other)

    def test_overflow_reports_index(self):
        P = make_operator([[1e308, 1e308], [0.0, 1.0]])
        f = WeightedFunction(P.space, [1e5, 1e5])
        with pytest.raises(NonFiniteError) as err:
            apply(P, f)
        assert err.value.index == 0


class TestDualApply:
    """The left action mu -> mu P, as the masses' left orbit."""

    def test_point_mass(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        out = next(islice(orbit(two_state["P"].kernel, mu.masses, left=True), 1, None))
        assert np.allclose(out, [0.5, 0.2], atol=1e-15)

    def test_identity(self, rng):
        P = make_operator(np.eye(5))
        mu = Measure(P.space, rng.uniform(0, 1, 5))
        out = next(islice(orbit(P.kernel, mu.masses, left=True), 1, None))
        assert np.array_equal(out, mu.masses)

    def test_adjointness(self, rng):
        # (mu P^n)(f) = mu(P^n f): the left and the right orbit pair alike.
        space = StateSpace(np.arange(5.0), rng.uniform(0.5, 2.0, 5))
        P = TransferOperator(space, random_kernel(rng, 5))
        mu = Measure(space, rng.uniform(0, 1, 5))
        f = WeightedFunction(space, rng.normal(size=5))
        left = orbit(P.kernel, mu.masses, left=True)
        right = orbit(P.kernel, f.values)
        for masses, g in islice(zip(left, right), 4):
            lhs = Measure(space, masses / space.ref_weights).mass(f)
            rhs = mu.mass(WeightedFunction(space, g))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


class TestIterate:
    def test_zero_steps(self, two_state):
        f = WeightedFunction(two_state["space"], [2.0, 5.0])
        assert next(orbit(two_state["P"].kernel, f.values)) is f.values

    def test_two_steps_on_eigenfunction(self, two_state):
        out = next(islice(orbit(two_state["P"].kernel, two_state["one"].values), 2, None))
        assert np.allclose(out, [0.49, 0.49], atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 25), m=st.integers(0, 25), seed=st.integers(0, 10**6))
    def test_semigroup_law(self, n, m, seed):
        # P^(n+m) = P^n P^m on the right orbit and on the left one.
        rng = np.random.default_rng(seed)
        K = rng.uniform(0.0, 0.5, size=(4, 4))
        v = rng.uniform(0.1, 1.0, 4)

        def nth(start, k, left):
            return next(islice(orbit(K, start, left=left), k, None))

        for left in (False, True):
            lhs = nth(v, n + m, left)
            rhs = nth(nth(v, m, left), n, left)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-290)


class TestOrbit:
    def test_right_and_left_match_matrix_powers(self, rng):
        K = random_kernel(rng, 5)
        v = rng.uniform(0.1, 1.0, 5)
        right = list(islice(orbit(K, v), 6))
        left = list(islice(orbit(K, v, left=True), 6))
        assert right[0] is v and left[0] is v
        for n in range(6):
            Kn = np.linalg.matrix_power(K, n)
            assert np.allclose(right[n], Kn @ v, rtol=1e-12)
            assert np.allclose(left[n], v @ Kn, rtol=1e-12)

    def test_constant_and_callable_divisors(self, rng):
        K = random_kernel(rng, 4)
        v = rng.uniform(0.1, 1.0, 4)
        for n, g in enumerate(islice(orbit(K, v, 2.5), 5)):
            assert np.allclose(g, np.linalg.matrix_power(K, n) @ v / 2.5**n, rtol=1e-12)
        for n, g in enumerate(islice(orbit(K, v, np.max), 5)):
            direction = np.linalg.matrix_power(K, n) @ v
            expected = direction / np.max(direction) if n else v
            assert np.allclose(g, expected, rtol=1e-12)

    def test_divisor_sees_the_undivided_image(self, two_state):
        seen = []

        def halve(image):
            seen.append(image.copy())
            return 2.0

        steps = list(islice(orbit(two_state["P"].kernel, np.ones(2), halve), 3))
        assert np.allclose(seen, [[0.7, 0.7], [0.245, 0.245]], atol=1e-15)
        assert np.allclose(steps[2], [0.1225, 0.1225], atol=1e-15)

    def test_matrix_start(self, rng):
        K = random_kernel(rng, 4)
        for n, M in enumerate(islice(orbit(K, np.eye(4), 3.0), 4)):
            assert np.allclose(M, np.linalg.matrix_power(K / 3.0, n), rtol=1e-12)

    def test_non_finite_names_step_and_index(self):
        K = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e200]])
        steps = orbit(K, np.array([1.0, 1.0, 1e200]))
        next(steps)
        with pytest.raises(NonFiniteError) as err:
            next(steps)
        assert err.value.step == 1
        assert err.value.index == 2
        assert "step 1" in str(err.value)


class TestWeightedNorm:
    def test_examples(self, two_state):
        space = two_state["space"]
        f = WeightedFunction(space, [1.0, -3.0])
        psi = WeightedFunction(space, [2.0, 1.0])
        assert weighted_norm(f, psi) == 3.0
        assert weighted_norm(psi, psi) == 1.0
        assert weighted_norm(WeightedFunction(space, [0.0, 0.0]), psi) == 0.0

    def test_nonpositive_weight_rejected(self, two_state):
        f = two_state["one"]
        with pytest.raises(ValueError):
            weighted_norm(f, WeightedFunction(two_state["space"], [1.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        other=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        scalar=st.floats(-100, 100),
    )
    def test_norm_axioms(self, vals, other, scalar):
        space = unit_space(3)
        psi = WeightedFunction(space, [0.5, 1.0, 2.0])
        f = WeightedFunction(space, vals)
        g = WeightedFunction(space, other)
        fg = WeightedFunction(space, f.values + g.values)
        assert weighted_norm(fg, psi) <= weighted_norm(f, psi) + weighted_norm(g, psi)
        sf = WeightedFunction(space, scalar * f.values)
        assert np.isclose(
            weighted_norm(sf, psi), abs(scalar) * weighted_norm(f, psi), rtol=1e-12
        )


class TestMeasureAndMask:
    def test_measure_rejects_negative(self):
        with pytest.raises(ValueError):
            Measure(unit_space(2), [-0.1, 1.0])

    def test_mass_pairing_uses_weights(self):
        space = StateSpace([0.0, 1.0], [0.5, 2.0])
        mu = Measure(space, [1.0, 1.0])
        f = WeightedFunction(space, [3.0, 4.0])
        assert mu.mass(f) == 0.5 * 3.0 + 2.0 * 4.0

    def test_mask_helpers(self):
        space = unit_space(4)
        K = SubsetMask.from_indices(space, [1, 3])
        assert K.count == 2
        assert list(K.indices) == [1, 3]
        sub = restrict_space(space, K.member)
        assert sub.size == 2
        with pytest.raises(ValueError):
            restrict_space(space, np.zeros(4, dtype=bool))


class TestSerialization:
    def test_bad_entries_named_by_plain_indices(self):
        with pytest.raises(NonFiniteError, match=r"entry at \(1, 0\)$"):
            make_operator([[1.0, 1.0], [np.inf, 1.0]])
        with pytest.raises(ValueError, match=r"entry at \(0, 1\)$"):
            make_operator([[1.0, -1.0], [1.0, 1.0]])

