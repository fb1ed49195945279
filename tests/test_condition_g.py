import numpy as np
import pytest

from rpos import (
    NonFiniteError,
    SeriesDivergenceError,
    SmallSetSearchError,
    SubsetMask,
    WeightedFunction,
    apply,
    build_psi2,
    build_psi2_auto,
    check_condition_g,
    check_g1,
    check_g1_horizons,
    check_g2,
    check_g3,
    check_g4,
    select_small_set,
)
from rpos.cli import _g_table, _plain

from conftest import make_operator, perron_oracle, random_kernel


def full_mask(P):
    return SubsetMask.full(P.space)


def ones(P):
    return WeightedFunction.ones(P.space)


class TestG1:
    def test_overflowing_mass_is_non_finite(self):
        P = make_operator(np.full((2, 2), 1e308))  # c1 = 2e308
        with pytest.raises(NonFiniteError, match="n1 = 1"):
            check_g1(P, full_mask(P), ones(P), 1)

    def test_hand_example(self):
        P = make_operator([[0.6, 0.4], [0.3, 0.7]])
        res = check_g1(P, full_mask(P), ones(P), 1)
        assert res.passed
        assert res.c1 == pytest.approx(0.7, abs=1e-15)
        assert np.allclose(res.nu.masses, [3.0 / 7.0, 4.0 / 7.0], rtol=1e-14)

    def test_identity_has_no_mixing(self):
        P = make_operator(np.eye(2))
        res = check_g1(P, full_mask(P), ones(P), 1)
        assert res.c1 == 0.0 and not res.passed

    def test_singleton_k(self, two_state):
        K = SubsetMask.from_indices(two_state["space"], [1])
        res = check_g1(two_state["P"], K, two_state["one"], 1)
        assert res.c1 == pytest.approx(0.6, abs=1e-15)
        assert res.nu.masses[1] == pytest.approx(1.0, abs=1e-15)
        assert res.nu.masses[0] == 0.0

    def test_certificate_valid_on_random_subsets(self, rng):
        P = make_operator(random_kernel(rng, 12))
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, 12))
        K = SubsetMask.from_indices(P.space, range(8))
        res = check_g1(P, K, psi, 2)
        M, nu_raw = res.minor_matrix, res.nu_raw
        for _ in range(200):
            sel = rng.random(8) < 0.5
            if not sel.any():
                continue
            # same arithmetic path: row sums of M against column minima sums
            lhs = M[:, sel].sum(axis=1)
            rhs = nu_raw[sel].sum()
            assert np.all(lhs >= rhs * (1 - 1e-15))

    def test_monotone_in_k(self, rng):
        P = make_operator(random_kernel(rng, 10))
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, 10))
        small = SubsetMask.from_indices(P.space, range(4))
        big = SubsetMask.from_indices(P.space, range(8))
        assert (
            check_g1(P, big, psi, 1).c1 >= check_g1(P, small, psi, 1).c1 - 1e-15
        )
        # enlarging K never increases the off-set contraction rate either
        psi2 = WeightedFunction(P.space, np.ones(10))
        t_small = check_g2(P, small, psi, psi2).theta1
        t_big = check_g2(P, big, psi, psi2).theta1
        assert t_big <= t_small + 1e-15

    def test_horizons_match_matrix_powers(self, rng):
        P = make_operator(random_kernel(rng, 9))
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, 9))
        K = SubsetMask.from_indices(P.space, [1, 4, 6])
        idx, v = K.indices, psi.values[K.indices]
        results = list(check_g1_horizons(P, K, psi, [1, 2, 5, 8]))
        assert [res.n1 for res in results] == [1, 2, 5, 8]
        for res in results:
            Kn = np.linalg.matrix_power(P.kernel, res.n1)
            expect = Kn[np.ix_(idx, idx)] * (v[None, :] / v[:, None])
            assert np.allclose(res.minor_matrix, expect, rtol=1e-12)
            assert res.c1 == check_g1(P, K, psi, res.n1).c1

    def test_rejects_bad_inputs(self, two_state):
        with pytest.raises(ValueError):
            check_g1(
                two_state["P"],
                SubsetMask(two_state["space"], [False, False]),
                two_state["one"],
                1,
            )
        with pytest.raises(ValueError):
            check_g1(two_state["P"], full_mask(two_state["P"]), two_state["one"], 0)


class TestG2:
    def test_hand_example(self, two_state):
        res = check_g2(two_state["P"], full_mask(two_state["P"]), two_state["one"],
                       two_state["one"])
        assert res.theta2 == pytest.approx(0.7, abs=1e-15)
        assert res.theta1 == 0.0  # empty complement convention
        assert res.c2 == pytest.approx(0.7, abs=1e-15)
        assert res.passed

    def test_psi2_vanishing_on_k_fails(self, two_state):
        psi2 = WeightedFunction(two_state["space"], [0.0, 0.0])
        res = check_g2(two_state["P"], full_mask(two_state["P"]), two_state["one"], psi2)
        assert res.inf_ratio == 0.0 and not res.passed

    def test_rescale_reported(self, two_state):
        psi2 = WeightedFunction(two_state["space"], [3.0, 3.0])
        res = check_g2(two_state["P"], full_mask(two_state["P"]), two_state["one"], psi2)
        assert res.psi2_scale == pytest.approx(3.0)
        assert res.sup_ratio <= 1.0
        assert res.passed

    def test_drift_certificate_holds_pointwise(self, rng):
        # the reported constants reproduce the two inequalities they certify
        P = make_operator(random_kernel(rng, 9))
        psi1 = WeightedFunction(P.space, rng.uniform(0.5, 4.0, 9))
        theta, eta_vals, _, _ = perron_oracle(P.kernel)
        psi2 = WeightedFunction(P.space, eta_vals)
        K = SubsetMask.from_indices(P.space, range(5))
        res = check_g2(P, K, psi1, psi2)
        r1 = apply(P, psi1).values / psi1.values
        assert np.all(
            r1 <= res.theta1 + res.c2 * K.member.astype(float) + 1e-12
        )
        r2 = apply(P, psi2).values / psi2.values
        assert np.all(r2 >= res.theta2 * (1 - 1e-12))


class TestG3:
    def test_eigenfunction_gives_unit_ratios(self, two_state):
        res = check_g3(two_state["P"], full_mask(two_state["P"]), two_state["one"], 30)
        assert res.c3 == pytest.approx(1.0, abs=1e-12)
        assert res.passed

    def test_matches_brute_force(self, two_state):
        psi = WeightedFunction(two_state["space"], [1.0, 2.0])
        res = check_g3(two_state["P"], full_mask(two_state["P"]), psi, 30)
        K = two_state["P"].kernel
        brute = 1.0
        Pn = np.eye(2)
        for _ in range(30):
            Pn = K @ Pn
            ratios = (Pn @ psi.values) / psi.values
            brute = max(brute, ratios.max() / ratios.min())
        assert res.c3 == pytest.approx(brute, rel=1e-12)
        assert res.passed

    def test_zero_mass_fails_with_offending_n(self):
        P = make_operator([[0.0, 0.0], [0.0, 1.0]])
        K = SubsetMask.from_indices(P.space, [0])
        res = check_g3(P, K, ones(P), 10)
        assert not res.passed
        assert res.failed_at == 1
        assert res.c3 == np.inf


class TestG4:
    def test_positive_kernel_stabilizes_at_one(self, rng):
        P = make_operator(random_kernel(rng, 6))
        res = check_g4(P, full_mask(P), ones(P), 50)
        assert res.passed
        assert all(v == 1 for v in res.n4.values())

    def test_two_cycle_fails(self):
        P = make_operator([[0.0, 1.0], [1.0, 0.0]])
        K = SubsetMask.from_indices(P.space, [0])
        res = check_g4(P, K, ones(P), 40)
        assert not res.passed
        assert res.n4[0] is None

    def test_delayed_onset(self):
        P = make_operator([[0.0, 1.0], [0.5, 0.5]])
        K = SubsetMask.from_indices(P.space, [0])
        res = check_g4(P, K, ones(P), 40)
        assert res.passed
        assert res.n4[0] == 2  # the K-mass leaves state 0 for one step


class TestBuildPsi2:
    def test_zero_order_is_rescaled_indicator(self, two_state):
        K = SubsetMask.from_indices(two_state["space"], [0])
        psi2 = build_psi2(two_state["P"], K, 0.5, 0)
        assert np.array_equal(psi2.values, [1.0, 0.0])

    def test_hand_example(self):
        P = make_operator([[0.5, 0.2], [0.1, 0.4]])
        K = SubsetMask.from_indices(P.space, [0])
        psi2 = build_psi2(P, K, 0.5, 1, rescale=False)
        assert np.allclose(psi2.values, [2.0, 0.2], atol=1e-15)
        drift = apply(P, psi2).values
        assert np.allclose(drift, [1.04, 0.28], atol=1e-15)
        assert np.all(drift >= 0.5 * psi2.values)

    def test_converges_to_dominant_direction(self, rng):
        P = make_operator(random_kernel(rng, 10))
        theta, eta_vals, _, _ = perron_oracle(P.kernel)
        K = SubsetMask.from_indices(P.space, range(4))
        psi2 = build_psi2(P, K, 0.7 * theta, 80, rescale=False)
        direction = psi2.values / np.max(psi2.values)
        target = eta_vals / np.max(eta_vals)
        assert np.allclose(direction, target, rtol=1e-6)

    def test_auto_search_self_certifies(self, rng):
        for _ in range(5):
            P = make_operator(random_kernel(rng, 8))
            theta, _, _, _ = perron_oracle(P.kernel)
            K = SubsetMask.from_indices(P.space, range(3))
            psi1 = WeightedFunction(P.space, rng.uniform(0.5, 2.0, 8))
            theta2 = 0.8 * theta
            psi2, n0 = build_psi2_auto(P, K, theta2, psi1)
            res = check_g2(P, K, psi1, psi2)
            assert res.theta2 >= theta2 * (1 - 1e-12)
            direct = build_psi2(P, K, theta2, n0, psi1)
            assert np.array_equal(psi2.values, direct.values)

    def test_rate_above_dominant_value_exhausts(self, rng):
        P = make_operator(random_kernel(rng, 6))
        theta, _, _, _ = perron_oracle(P.kernel)
        K = SubsetMask.from_indices(P.space, range(2))
        with pytest.raises(SeriesDivergenceError) as err:
            build_psi2_auto(P, K, 1.5 * theta, n0_max=80)
        assert err.value.reason == "exhausted"

    def test_tiny_rate_overflows_with_diagnostics(self, rng):
        P = make_operator(random_kernel(rng, 6))
        K = SubsetMask.from_indices(P.space, range(2))
        with pytest.raises(SeriesDivergenceError) as err:
            build_psi2(P, K, 1e-30, 12)
        assert err.value.reason == "overflow"
        assert len(err.value.term_ratios) >= 1


class TestSelectSmallSet:
    def test_picks_smallest_separating_level(self, rng):
        # contraction toward state 0 with a loose tail: drift ratio grows
        n = 12
        K = np.zeros((n, n))
        for i in range(n):
            K[i, max(0, i - 2)] = 0.8
            K[i, min(n - 1, i + 1)] = 0.1 + 0.05 * (i / n)
        P = make_operator(K)
        psi1 = WeightedFunction(P.space, np.exp(0.5 * np.arange(n)))
        r1 = (P.kernel @ psi1.values) / psi1.values
        theta2 = 1.05 * np.max(r1[6:])  # separable only by cutting the tail
        levels = np.exp(0.5 * np.arange(1, n + 1))
        mask = select_small_set(P, psi1, theta2, levels)
        assert mask.count < n
        outside = ~mask.member
        assert np.max(r1[outside]) * 1.1 < theta2
        with pytest.raises(SmallSetSearchError):
            select_small_set(P, psi1, np.min(r1) / 2.0, levels)


class TestInterchangeability:
    def test_psi1_psi2_swap_preserves_decisions(self, rng):
        # on instances where g2 passes, swapping the weight pair in g1 and
        # g3 flips no pass/fail decision
        agree = 0
        for trial in range(12):
            n = int(rng.integers(5, 12))
            if trial % 3 == 2:
                P = make_operator(np.eye(n))  # negative instances: no mixing
            else:
                P = make_operator(random_kernel(rng, n))
            theta, eta_vals, _, _ = perron_oracle(P.kernel)
            eta_vals = np.maximum(eta_vals, 1e-9)
            psi1 = WeightedFunction(
                P.space, eta_vals * (1.0 + rng.uniform(0.0, 0.5, n))
            )
            psi2 = WeightedFunction(P.space, eta_vals)
            K = full_mask(P)
            g2 = check_g2(P, K, psi1, psi2)
            if not g2.passed:
                continue
            r1a = check_g1(P, K, psi1, 1).passed
            r1b = check_g1(P, K, psi2, 1).passed
            assert r1a == r1b
            r3a = check_g3(P, K, psi1, 40).passed
            r3b = check_g3(P, K, psi2, 40).passed
            assert r3a == r3b
            agree += 1
        assert agree >= 8


class TestReportAssembly:
    def test_overall_conjunction_and_serialization(self, rng):
        P = make_operator(random_kernel(rng, 5))
        rep = check_condition_g(P, full_mask(P), ones(P), ones(P))
        assert rep.overall == (
            rep.g1.passed and rep.g2.passed and rep.g3.passed and rep.g4.passed
        )
        d = _plain(rep)
        assert set(d) == {"g1", "g2", "g3", "g4", "overall"}
        assert d["g1"]["pass"] == rep.g1.passed
        table = _g_table(rep)
        assert "overall" in table and "c1=" in table

    def test_identity_fails_via_g1(self):
        P = make_operator(np.eye(3))
        rep = check_condition_g(P, full_mask(P), ones(P), ones(P))
        assert not rep.g1.passed and not rep.overall
        assert rep.g2.passed  # theta1 = 0 < theta2 = 1 on the full set
