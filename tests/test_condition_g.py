import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpos import (
    NonFiniteError,
    SeriesDivergenceError,
    SmallSetSearchError,
    SubsetMask,
    WeightedFunction,
    apply,
    build_psi2_auto,
    check_condition_g,
    check_g1,
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
            check_g1(P, full_mask(P), ones(P))

    def test_hand_example(self):
        P = make_operator([[0.6, 0.4], [0.3, 0.7]])
        res = check_g1(P, full_mask(P), ones(P))
        assert res.passed and res.n1 == 1
        assert res.c1 == pytest.approx(0.7, abs=1e-15)
        assert np.allclose(res.nu.masses, [3.0 / 7.0, 4.0 / 7.0], rtol=1e-14)

    def test_identity_has_no_mixing(self):
        P = make_operator(np.eye(2))
        res = check_g1(P, full_mask(P), ones(P))
        assert res.c1 == 0.0 and not res.passed

    def test_singleton_k(self, two_state):
        K = SubsetMask.from_indices(two_state["space"], [1])
        res = check_g1(two_state["P"], K, two_state["one"])
        assert res.n1 == 1
        assert res.c1 == pytest.approx(0.6, abs=1e-15)
        assert res.nu.masses[1] == pytest.approx(1.0, abs=1e-15)
        assert res.nu.masses[0] == 0.0

    def test_certificate_valid_on_random_subsets(self, rng):
        P = make_operator(random_kernel(rng, 12))
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, 12))
        K = SubsetMask.from_indices(P.space, range(8))
        res = check_g1(P, K, psi)
        assert res.n1 == 1
        # M(x, j) = P(psi 1_{j})(x) / psi(x) by the same arithmetic as check_g1
        idx, v = K.indices, psi.values[K.indices]
        M = P.kernel[np.ix_(idx, idx)] * (v[None, :] / v[:, None])
        nu_raw = M.min(axis=0)
        assert res.c1 == nu_raw.sum()
        assert np.allclose(res.c1 * res.nu.masses[idx], nu_raw, rtol=1e-14, atol=0)
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
        assert check_g1(P, big, psi).c1 >= check_g1(P, small, psi).c1 - 1e-15
        # enlarging K never increases the off-set contraction rate either
        psi2 = WeightedFunction(P.space, np.ones(10))
        t_small = check_g2(P, small, psi, psi2).theta1
        t_big = check_g2(P, big, psi, psi2).theta1
        assert t_big <= t_small + 1e-15

    def test_horizons_match_matrix_powers(self, rng):
        # a banded kernel: K = {1, 4, 6} first shares mass at n1 = 3
        n = 9
        kernel = np.diag(rng.uniform(0.1, 1.0, n))
        kernel += np.diag(rng.uniform(0.1, 1.0, n - 1), 1)
        kernel += np.diag(rng.uniform(0.1, 1.0, n - 1), -1)
        P = make_operator(kernel)
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, n))
        K = SubsetMask.from_indices(P.space, [1, 4, 6])
        idx, v = K.indices, psi.values[K.indices]
        res = check_g1(P, K, psi)
        assert res.passed and res.n1 == 3
        for m in range(1, res.n1 + 1):
            Kn = np.linalg.matrix_power(P.kernel, m)
            nu_raw = (Kn[np.ix_(idx, idx)] * (v[None, :] / v[:, None])).min(axis=0)
            assert (nu_raw.sum() > 0.0) == (m == res.n1)
        assert res.c1 == pytest.approx(nu_raw.sum(), rel=1e-12)
        assert np.allclose(res.c1 * res.nu.masses[idx], nu_raw, rtol=1e-12)

    def test_rejects_bad_inputs(self, two_state):
        with pytest.raises(ValueError):
            check_g1(
                two_state["P"],
                SubsetMask(two_state["space"], [False, False]),
                two_state["one"],
            )
        with pytest.raises(ValueError, match="positive on K"):
            check_g1(
                two_state["P"],
                full_mask(two_state["P"]),
                WeightedFunction(two_state["space"], [1.0, 0.0]),
            )


def lazy_walk(n, stay=0.5):
    """Walk on n sites that stays with ``stay`` and steps each way with the
    rest halved, killed off both ends."""
    side = (1.0 - stay) / 2.0
    return stay * np.eye(n) + side * (np.eye(n, k=1) + np.eye(n, k=-1))


class TestG1Search:
    # The first n1 <= 2N with mass, off one power-of-two-scaled pass that
    # stops once the zero pattern of the K rows repeats an earlier one.
    def test_two_cycle_passes_at_the_second_step(self):
        # P_1 1_{0} vanishes at state 0; P_2 returns all of it
        P = make_operator([[0.0, 1.0], [1.0, 0.0]])
        K = SubsetMask.from_indices(P.space, [0])
        res = check_g1(P, K, ones(P))
        assert res.passed and res.n1 == 2 and res.c1 == 1.0

    def test_three_cycle_passes_at_the_third_step(self):
        # the first return to 0 is at n = 3, which no doubling of n reaches
        P = make_operator(np.roll(np.eye(3), 1, axis=1))
        K = SubsetMask.from_indices(P.space, [0])
        res = check_g1(P, K, ones(P))
        assert res.passed and res.n1 == 3 and res.c1 == 1.0
        assert res.nu.masses[0] == 1.0

    def test_identity_still_fails(self):
        # P_1 keeps the zero pattern of P_0 = I, so no later step has mass
        P = make_operator(np.eye(300))
        res = check_g1(P, full_mask(P), ones(P))
        assert not res.passed and res.c1 == 0.0
        assert res.n1 == 1

    def test_lazy_walk_passes_at_half_its_length(self):
        # row 0 reaches site 19 first at step 19 and row 39 at step 20
        P = make_operator(lazy_walk(40))
        res = check_g1(P, full_mask(P), ones(P))
        assert res.passed and res.n1 == 20
        assert res.c1 == pytest.approx(1.8189894035458565e-12, rel=1e-12)
        top = np.linalg.matrix_power(P.kernel, 20).min(axis=0).sum()
        assert res.c1 == pytest.approx(top, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-12, 1e12])
    def test_scaled_lazy_walk_keeps_its_n1(self, s):
        P = make_operator(lazy_walk(40))
        base = check_g1(P, full_mask(P), ones(P))
        P = make_operator(s * lazy_walk(40))
        res = check_g1(P, full_mask(P), ones(P))
        assert res.passed and res.n1 == 20
        assert res.c1 == pytest.approx(base.c1 * s**20, rel=1e-12)

    def test_mass_below_the_float_range_is_non_finite(self):
        # c1 = 1.82e-12 * 1e-600 has no float
        P = make_operator(1e-30 * lazy_walk(40))
        with pytest.raises(NonFiniteError, match="n1 = 20") as err:
            check_g1(P, full_mask(P), ones(P))
        assert err.value.step == 20

    @pytest.mark.parametrize("n, weight", [(20, 1e10), (200, 100.0)])
    def test_heavy_cycle_fails_at_its_size(self, n, weight):
        # the supports shift round the cycle and are P_0's again at n, not
        # at 2N; unscaled, the 20-cycle's orbit would overflow at step 31
        P = make_operator(weight * np.roll(np.eye(n), 1, axis=1))
        res = check_g1(P, full_mask(P), ones(P))
        assert not res.passed and res.c1 == 0.0
        assert res.n1 == n

    def test_cycle_after_a_transient_fails_at_its_first_repeat(self):
        # 0 -> 1 <-> 2: the row of 0 is e1, e2, e1, ..., so n = 3 repeats
        # n = 1's pattern, though neither P_0's nor the previous step's
        P = make_operator([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        K = SubsetMask.from_indices(P.space, [0])
        res = check_g1(P, K, ones(P))
        assert not res.passed and res.c1 == 0.0
        assert res.n1 == 3


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

    def test_onset_past_three_quarters_of_the_horizon(self):
        # returns to 0 take 5a + 8b steps; 27 is the last length none has
        P = cycles_through_zero(5, 8)
        K = SubsetMask.from_indices(P.space, [0])
        for n_max in range(36, 101):
            res = check_g4(P, K, ones(P), n_max)
            assert res.passed and res.n4 == {0: 28}, n_max

    def test_seven_and_nine_cycles(self):
        # the last length 7a + 9b misses is 47
        P = cycles_through_zero(7, 9)
        K = SubsetMask.from_indices(P.space, [0])
        for n_max in (60, 80, 100):
            res = check_g4(P, K, ones(P), n_max)
            assert res.passed and res.n4 == {0: 48}, n_max

    @pytest.mark.parametrize("lengths", [[2, 3, 5, 7, 11, 13], [1, 2, 3, 5, 7, 11, 13]])
    def test_long_support_period_stops_at_the_cap(self, lengths):
        # one K state on each of six disjoint cycles: the supports repeat
        # only after lcm(2, 3, 5, 7, 11, 13) = 30030 steps. A looping K
        # state, positive at every step, gets no n4 either.
        starts = np.cumsum([0] + lengths[:-1])
        kernel = np.zeros((sum(lengths), sum(lengths)))
        for start, length in zip(starts, lengths):
            for i in range(length):
                kernel[start + i, start + (i + 1) % length] = 1.0
        P = make_operator(kernel)
        K = SubsetMask.from_indices(P.space, starts)
        res = check_g4(P, K, ones(P), 100)
        assert not res.passed
        assert res.n4 == {int(x): None for x in starts}

    def test_growing_supports_settle_before_they_repeat(self):
        # the support of P_n 1_{100} widens by one site a side each step and
        # first repeats near n = 100; it settles at n = 1
        n = 200
        kernel = 0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
        P = make_operator(kernel)
        K = SubsetMask.from_indices(P.space, [100])
        res = check_g4(P, K, ones(P), 10)
        assert res.passed and res.n4 == {100: 1}


def cycles_through_zero(*lengths):
    """Cycles of the given lengths sharing state 0, each left with weight 0.5."""
    size = 1 + sum(length - 1 for length in lengths)
    kernel = np.zeros((size, size))
    first = 1
    for length in lengths:
        path = [0, *range(first, first + length - 1), 0]
        first += length - 1
        for a, b in zip(path, path[1:]):
            kernel[a, b] = 0.5 if a == 0 else 1.0
    return make_operator(kernel)


class TestBuildPsi2:
    def test_zero_order_is_rescaled_indicator(self, two_state):
        # P 1_K = (0.5, 0.1) >= 0.5 1_K: the indicator certifies itself
        K = SubsetMask.from_indices(two_state["space"], [0])
        psi2, n0 = build_psi2_auto(two_state["P"], K, 0.5, two_state["one"])
        assert n0 == 0
        assert np.array_equal(psi2.values, [1.0, 0.0])

    def test_hand_example(self):
        # theta2^-1 P 1_K = (0.5, 1.0) stays below 1 on K and
        # theta2^-2 P_2 1_K = (1.25, 1.0) does not, so n0 = 1
        P = make_operator([[0.25, 0.5], [0.5, 0.25]])
        K = SubsetMask.from_indices(P.space, [0])
        psi1 = WeightedFunction(P.space, [3.0, 2.0])
        psi2, n0 = build_psi2_auto(P, K, 0.5, psi1)
        assert n0 == 1
        # 1_K + P 1_K / 0.5 = (1.5, 1.0), divided by its sup over psi1, 0.5
        assert np.array_equal(psi2.values, [3.0, 2.0])
        drift = apply(P, psi2).values
        assert np.array_equal(drift, [1.75, 2.0])
        assert np.all(drift >= 0.5 * psi2.values)

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
            # the series sum_{k <= n0} theta2^-k P_k 1_K, divided by its sup over psi1
            term, series = K.member.astype(float), 0.0
            for _ in range(n0 + 1):
                series = series + term
                term = P.kernel @ term / theta2
            assert np.min(term[K.indices]) >= 1.0
            direct = series / np.max(series / psi1.values)
            assert np.array_equal(psi2.values, direct)

    def test_rate_above_dominant_value_exhausts(self, rng):
        P = make_operator(random_kernel(rng, 6))
        theta, _, _, _ = perron_oracle(P.kernel)
        K = SubsetMask.from_indices(P.space, range(2))
        with pytest.raises(SeriesDivergenceError) as err:
            build_psi2_auto(P, K, 1.5 * theta, ones(P))
        assert err.value.reason == "exhausted"

    def test_tiny_rate_overflows_with_diagnostics(self):
        # state 1 of K is killed, so the search never certifies while the
        # return mass of state 0 grows by 1e30 a step
        P = make_operator([[1.0, 0.0], [0.0, 0.0]])
        K = full_mask(P)
        with pytest.raises(SeriesDivergenceError) as err:
            build_psi2_auto(P, K, 1e-30, ones(P))
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
            r1a = check_g1(P, K, psi1).passed
            r1b = check_g1(P, K, psi2).passed
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


@st.composite
def g_instances(draw):
    """A dense, sparse, lazy-walk or weighted-cycle kernel on 2-12 states with
    a random nonempty K, positive psi1 and psi2, and a permutation."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["dense", "sparse", "lazy-walk", "cycle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.uniform(0.05, 1.0, (n, n))
    if kind == "sparse":
        kernel *= rng.random((n, n)) < 0.3
    elif kind == "lazy-walk":
        stay = rng.uniform(0.2, 0.8)
        kernel = stay * np.eye(n) + (1 - stay) / 2 * (np.eye(n, k=1) + np.eye(n, k=-1))
    elif kind == "cycle":
        kernel = np.roll(np.eye(n), 1, axis=1) * rng.uniform(0.5, 2.0, n)
    member = rng.random(n) < 0.5
    member[rng.integers(n)] = True
    psi1, psi2 = rng.uniform(0.5, 2.0, (2, n))
    return kernel, member, psi1, psi2, rng.permutation(n)


def g_summary(kernel, member, psi1, psi2):
    P = make_operator(kernel)
    rep = check_condition_g(
        P,
        SubsetMask(P.space, member),
        WeightedFunction(P.space, psi1),
        WeightedFunction(P.space, psi2),
        n_max=60,
    )
    verdicts = [rep.g1.passed, rep.g2.passed, rep.g3.passed, rep.g4.passed]
    return verdicts, rep.g1.n1, rep.g4.n4


class TestMetamorphic:
    # Relations the theory makes exact: relabelling the states and scaling
    # the kernel change no verdict, no (G1) horizon and no onset n4.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g_instances())
    def test_permutation_and_scale_keep_every_verdict(self, drawn):
        kernel, member, psi1, psi2, perm = drawn
        verdicts, n1, n4 = g_summary(kernel, member, psi1, psi2)
        # new state i is old state perm[i]
        moved = g_summary(kernel[np.ix_(perm, perm)], member[perm], psi1[perm], psi2[perm])
        assert moved == (verdicts, n1, {i: n4[int(old)] for i, old in enumerate(perm)
                                        if member[old]})
        for s in (1e-3, 3.0, 1e3):
            assert g_summary(s * kernel, member, psi1, psi2) == (verdicts, n1, n4), s

    def test_banded_kernels_keep_n1_and_scale_c1_by_the_power(self):
        # Lazy walks (K every state) pass near N/2. Weighted cycles with one
        # chord closing a shorter cycle of length L pass at n1 = L for K the
        # chord's start, and end as a FAIL at 2N for K every state, whose
        # supports change at every step. Far scales keep each verdict and n1
        # and move c1 by s^n1, which an unscaled orbit would lose to underflow
        # or overflow.
        rng = np.random.default_rng(11)
        cases = []
        for n in range(10, 41, 5):
            cases.append((lazy_walk(n, rng.uniform(0.2, 0.8)), np.ones(n, bool)))
            cycle = np.roll(np.eye(n), 1, axis=1) * rng.uniform(0.5, 2.0, n)
            a, length = int(rng.integers(n)), int(rng.integers(3, min(n, 21)))
            cycle[a, (a - length + 1) % n] = rng.uniform(0.5, 2.0)
            cases.append((cycle, np.arange(n) == a))
            cases.append((cycle, np.ones(n, bool)))
        for kernel, member in cases:
            n = kernel.shape[0]
            psi1 = rng.uniform(0.5, 2.0, n)
            base = check_g1(*g1_inputs(kernel, member, psi1))
            assert base.n1 <= n if base.passed else base.n1 == 2 * n
            for s in (1e-12, 1e12):
                res = check_g1(*g1_inputs(s * kernel, member, psi1))
                assert (res.passed, res.n1) == (base.passed, base.n1), (n, s)
                expect = base.c1 * s**base.n1 if base.passed else 0.0
                assert res.c1 == pytest.approx(expect, rel=1e-12)


def g1_inputs(kernel, member, psi1):
    P = make_operator(kernel)
    return P, SubsetMask(P.space, member), WeightedFunction(P.space, psi1)
