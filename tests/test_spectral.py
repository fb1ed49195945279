import numpy as np
import pytest

from rpos import (
    Measure,
    NonFiniteError,
    PdsModel,
    PowerIterationError,
    ReciprocalInput,
    SpaceMismatchError,
    SpectralTriple,
    TransferOperator,
    WeightedFunction,
    build_pds_kernel,
    certify,
    measure_eq1_eq2,
    measure_eq3,
    power_iterate,
    scalar_field,
    skeleton_analysis,
    vector_field,
)

from rpos.cli import _csv, _plain
from rpos.core import ROUNDOFF_REL
from rpos.spectral import _MAX_ITER, _fit_geometric, half_probe

from conftest import make_operator, perron_oracle, random_kernel, unit_space


def reducible_kernel(rng):
    """An aperiodic class A and a period-2 class B, one feeding the other,
    and a dead state (a zero row) that both feed; True when B dominates."""
    na, nb = (int(k) for k in rng.integers(2, 5, size=2))
    n = na + nb + 1
    K = np.zeros((n, n))
    K[:na, :na] = rng.uniform(0.05, 1.0, (na, na))
    h = max(1, nb // 2)
    B = np.zeros((nb, nb))  # bipartite: edges only across the two halves
    B[:h, h:] = rng.uniform(0.05, 1.0, (h, nb - h))
    B[h:, :h] = rng.uniform(0.05, 1.0, (nb - h, h))
    ratio = rng.choice([rng.uniform(0.6, 0.85), rng.uniform(1.15, 1.4)])
    radius_a = np.max(np.abs(np.linalg.eigvals(K[:na, :na])))
    K[na:-1, na:-1] = B * ratio * radius_a / np.max(np.abs(np.linalg.eigvals(B)))
    C = rng.uniform(0.05, 1.0, (nb, na))
    if rng.uniform() < 0.5:
        K[na:-1, :na] = C  # B upstream of A
    else:
        K[:na, na:-1] = C.T  # A upstream of B
    K[:-1, -1] = rng.uniform(0.0, 1.0, n - 1)
    perm = rng.permutation(n)
    return K[np.ix_(perm, perm)], bool(ratio > 1.0)


class TestPowerIterate:
    def test_closed_form(self, two_state):
        t = power_iterate(two_state["P"], two_state["one"])
        assert abs(t.theta0 - 0.7) <= 1e-12
        assert np.allclose(t.eta.values, [1.0, 1.0], atol=1e-12)
        assert np.allclose(t.nu_P.masses, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_normalizations(self, rng):
        P = make_operator(random_kernel(rng, 9))
        psi = WeightedFunction(P.space, rng.uniform(0.3, 2.0, 9))
        t = power_iterate(P, psi)
        assert abs(t.nu_P.mass(psi) - 1.0) <= 1e-12
        assert abs(t.nu_P.mass(t.eta) - 1.0) <= 1e-12
        assert np.all(t.eta.values >= -1e-14)
        assert np.all(t.nu_P.density >= -1e-14)

    def test_scalar_operator_converges_immediately(self, two_state):
        P = TransferOperator(two_state["space"], 0.3 * np.eye(2))
        t = power_iterate(P, two_state["one"])
        assert t.iterations == 1
        assert t.theta0 == pytest.approx(0.3, abs=1e-15)
        assert t.right_residual == 0.0 and t.left_residual == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 21))
            P = make_operator(random_kernel(rng, n))
            t = power_iterate(P, WeightedFunction.ones(P.space))
            theta, eta, nu_density, _ = perron_oracle(P.kernel)
            assert abs(t.theta0 - theta) <= 1e-10 * theta
            assert np.max(np.abs(t.eta.values - eta)) <= 1e-8

    def test_eigen_identities_at_tol(self, two_state):
        tol = 1e-12
        t = power_iterate(two_state["P"], two_state["one"], tol=tol)
        Pe = two_state["P"].kernel @ t.eta.values
        assert np.max(np.abs(Pe - t.theta0 * t.eta.values)) <= tol
        mP = t.nu_P.masses @ two_state["P"].kernel
        assert np.sum(np.abs(mP - t.theta0 * t.nu_P.masses)) <= tol

    def test_periodic_spectrum_fails_with_history(self):
        P = make_operator([[0.0, 1.0], [1.0, 0.0]])
        psi = WeightedFunction(P.space, [1.0, 2.0])  # not the Perron direction
        with pytest.raises(PowerIterationError, match="period 2") as err:
            power_iterate(P, psi)
        assert err.value.history.size > 0

    @pytest.mark.parametrize(
        "kernel, psi",
        [
            ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]),
            (1e20 * np.roll(np.eye(3), 1, axis=1), [1.0, 1.0, 1.0]),
        ],
        ids=["2-cycle", "3-cycle"],
    )
    def test_periodic_kernel_names_its_period(self, kernel, psi):
        # psi = 1 is the Perron direction: the first sweep has residual 0
        P = make_operator(kernel)
        with pytest.raises(PowerIterationError, match=f"period {len(psi)}"):
            power_iterate(P, WeightedFunction(P.space, psi))

    @pytest.mark.parametrize(
        "kernel, psi",
        [
            ([[0.0, 0.139, 0.0], [0.0, 0.0, 0.119], [0.767, 0.0, 0.0]], [8.503, 0.055, 0.39]),
            ([[0.0, 0.041, 0.0], [0.0, 0.0, 0.278], [1.588, 0.0, 0.0]], [2.643, 1.431, 4.149]),
        ],
        ids=["3-cycle-a", "3-cycle-b"],
    )
    def test_periodic_kernel_fails_fast_after_noda_steps_end(self, kernel, psi):
        # A Noda step raises the residual and ends Noda steps, so sweeps take
        # over and cycle; the period is read after 3 sweeps, not max_iter.
        P = make_operator(kernel)
        with pytest.raises(PowerIterationError, match="period 3") as err:
            power_iterate(P, WeightedFunction(P.space, psi))
        assert 0 < err.value.history.size <= 20

    def test_periodic_kernel_fails_fast_while_noda_solves_fail(self):
        # Nearly every Noda solve on this 4-cycle is not finite and positive,
        # so Noda steps never end; the period is read N sweeps after the
        # last Noda step instead of after max_iter sweeps.
        P = make_operator(5e-301 * np.roll(np.eye(4), 1, axis=1))
        psi = WeightedFunction(P.space, [0.5, 4.0, 4.0, 1.0])
        with pytest.raises(PowerIterationError, match="period 4") as err:
            power_iterate(P, psi, tol=1e-12)
        assert 0 < err.value.history.size <= 20

    @pytest.mark.parametrize("seed", range(12))
    def test_reducible_kernel_reads_the_dominant_class(self, seed):
        # An aperiodic class and a period-2 class, one upstream of the other,
        # plus a dead state that keeps Noda steps off: only a period-2
        # dominant class may raise, and it must raise well before max_iter.
        rng = np.random.default_rng(seed)
        K, periodic = reducible_kernel(rng)
        P = make_operator(K)
        psi = WeightedFunction(P.space, rng.uniform(0.1, 5.0, K.shape[0]))
        if periodic:
            with pytest.raises(PowerIterationError, match="period 2") as err:
                power_iterate(P, psi, tol=1e-12)
            assert err.value.history.size <= 1000
        else:
            t = power_iterate(P, psi, tol=1e-12)
            theta, *_ = perron_oracle(K)
            assert t.theta0 == pytest.approx(theta, rel=1e-12)

    @pytest.mark.parametrize(
        "kernel, tol",
        [
            (0.5 * np.eye(5) + np.eye(5, k=1), 1e-13),
            (np.triu(np.full((5, 5), 0.3)), 1e-13),
            ([[0.5, 1.0], [0.0, 0.5]], 1e-12),
            ([[0.5, 1.0], [0.0, 0.5]], 1e-13),
        ],
        ids=["jordan-block", "upper-triangular", "2-jordan-1e-12", "2-jordan-1e-13"],
    )
    def test_defective_kernel_fails_fast(self, kernel, tol):
        P = make_operator(kernel)
        with pytest.raises(PowerIterationError, match="defective") as err:
            power_iterate(P, WeightedFunction.ones(P.space), tol=tol)
        assert 0 < err.value.history.size <= 200

    def test_non_normal_kernel_is_not_defective(self):
        # eigenvalues 1 and 0.9; the left eigenvector (1, 1e10) leaves the
        # pairing of the normalized pair at 1e-10, which has settled
        P = make_operator([[1.0, 1e9], [0.0, 0.9]])
        t = power_iterate(P, WeightedFunction.ones(P.space))
        assert t.theta0 == pytest.approx(1.0, rel=1e-13)
        assert t.eta.values[0] == pytest.approx(1.0 + 1e10, rel=1e-12)
        assert t.eta.values[1] <= 1e-12

    def test_noda_steps_end_at_the_round_off_floor(self, monkeypatch):
        # tol 1e-17 lies below the residual's round-off floor: once a Noda
        # step fails to lower the residual, the next one waits N // 3
        # iterations, so the cap holds about _MAX_ITER / (N // 3) Noda steps
        # after the handful that reach the floor
        solve, solves = np.linalg.solve, []

        def counting_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        n = 200
        P = make_operator(0.35 * np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1)))
        with pytest.raises(PowerIterationError, match="no convergence") as err:
            power_iterate(P, WeightedFunction.ones(P.space), tol=1e-17)
        assert err.value.history.size == _MAX_ITER
        assert len(solves) <= 2 * (_MAX_ITER // (n // 3) + 10)  # two solves per Noda step

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_slow_gap_walk_converges(self, n):
        # killed walk, stay 0.35, move 0.3: gap ratio 1 - O(n^-2)
        K = 0.35 * np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
        P = make_operator(K)
        t = power_iterate(P, WeightedFunction.ones(P.space))
        assert t.iterations <= 30
        theta = 0.35 + 0.6 * np.cos(np.pi / (n + 1))
        assert abs(t.theta0 - theta) <= 1e-12 * theta
        sine = np.sin(np.arange(1, n + 1) * np.pi / (n + 1))
        eta = t.eta.values
        assert np.max(np.abs(eta / eta.max() - sine / sine.max())) <= 1e-10

    @pytest.mark.parametrize(
        "stay, up, down, n",
        [(0.2, 0.4, 0.22, 200), (0.3, 0.35, 0.2, 100), (0.25, 0.4, 0.3, 300)],
    )
    def test_biased_killed_walk_converges(self, stay, up, down, n):
        # non-normal walks: early Noda steps fail to lower the residual, and
        # the sweeps alone would need about 10^5 steps
        K = stay * np.eye(n) + up * np.eye(n, k=1) + down * np.eye(n, k=-1)
        P = make_operator(K)
        t = power_iterate(P, WeightedFunction.ones(P.space))
        theta = stay + 2.0 * np.sqrt(up * down) * np.cos(np.pi / (n + 1))
        assert abs(t.theta0 - theta) <= 1e-12 * theta

    def test_singular_shift_is_a_sweep(self, monkeypatch):
        # diag(1, 0.5): the Collatz-Wielandt shift is 1 = theta0 exactly
        solve, singular = np.linalg.solve, []

        def recording_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        P = make_operator(np.diag([1.0, 0.5]))
        t = power_iterate(P, WeightedFunction.ones(P.space))
        assert singular
        assert t.theta0 == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(t.eta.values, [1.0, 0.0], atol=1e-12)

    def test_zero_operator_fails(self):
        P = make_operator(np.zeros((3, 3)))
        with pytest.raises(PowerIterationError):
            power_iterate(P, WeightedFunction.ones(P.space))

    def test_nilpotent_operator_fails_without_dividing_zero_by_zero(self):
        # the second sweep has m @ Pf = m @ f = 0; tier-1 turns 0/0 warnings into errors
        P = make_operator([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(PowerIterationError, match="theta estimate 0.0"):
            power_iterate(P, WeightedFunction.ones(P.space))

    def test_overflowing_sweep_fails(self):
        P = make_operator(np.full((2, 2), 1e300))
        with pytest.raises(PowerIterationError, match="theta estimate inf"):
            power_iterate(P, WeightedFunction(P.space, [1.0, 1e10]))

    def test_psi_rescale_invariance(self, rng):
        P = make_operator(random_kernel(rng, 7))
        psi = WeightedFunction(P.space, rng.uniform(0.5, 2.0, 7))
        t1 = power_iterate(P, psi)
        t2 = power_iterate(P, WeightedFunction(P.space, 3.0 * psi.values))
        assert abs(t1.theta0 - t2.theta0) <= 1e-12 * t1.theta0
        # direction of eta unchanged; values rescale through nu_P(eta) = 1
        ratio = t2.eta.values / t1.eta.values
        assert np.allclose(ratio, ratio[0], rtol=1e-9)
        assert np.allclose(3.0 * t2.nu_P.density, t1.nu_P.density, rtol=1e-9)

    def test_rate_consistency_with_oracle_gap(self, rng):
        # near-diagonal kernels: the spectrum stays real with well-separated
        # moduli, so the error envelope is cleanly geometric at the gap ratio
        for _ in range(5):
            n = int(rng.integers(4, 9))
            diag = np.sort(rng.uniform(0.2, 1.0, n))[::-1]
            diag[0] = 1.2  # isolated dominant and sub-dominant eigenvalue
            diag[1] = 0.9
            K = np.diag(diag) + rng.uniform(0.0, 0.01, (n, n))
            P = make_operator(K)
            theta, eta, nu_density, gap = perron_oracle(P.kernel)
            one = WeightedFunction.ones(P.space)
            t = power_iterate(P, one)
            mu = Measure.point_mass(P.space, 0)
            f = WeightedFunction(P.space, np.eye(n)[1])
            n_max = max(12, min(60, int(np.log(1e-10) / np.log(gap))))
            _, rep = measure_eq1_eq2(P, t, one, one, mu, f, n_max)
            assert rep.fitted_rate > 0
            assert 0.95 * gap <= rep.fitted_rate <= 1.05 * gap


class TestMeasureEq1:
    def test_two_state_rate(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        one = two_state["one"]
        rep, _ = measure_eq1_eq2(two_state["P"], two_state["triple"], one, one, mu, f, 40)
        assert rep.passed
        assert 0.54 <= rep.fitted_rate <= 0.60

    def test_f_equals_psi1_is_exact(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        one = two_state["one"]
        rep, _ = measure_eq1_eq2(two_state["P"], two_state["triple"], one, one, mu, one, 30)
        assert np.max(rep.errors) <= 1e-14
        assert rep.passed and rep.fitted_rate == 0.0

    def test_left_eigenmeasure_is_exact(self, two_state):
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        one = two_state["one"]
        rep, _ = measure_eq1_eq2(
            two_state["P"], two_state["triple"], one, one, two_state["nu_P"], f, 30
        )
        assert np.max(rep.errors) <= 1e-13

    def test_rejects_undominated_f(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [2.0, 0.0])
        one = two_state["one"]
        with pytest.raises(ValueError):
            measure_eq1_eq2(two_state["P"], two_state["triple"], one, one, mu, f, 10)

    def test_vanishing_mass_is_irrecoverable(self):
        P = make_operator([[0.0, 1.0], [0.0, 0.0]])  # absorbs into a dead state
        space = P.space
        one = WeightedFunction.ones(space)
        mu = Measure.point_mass(space, 0)
        from rpos.spectral import NonConvergingMassError, SpectralTriple

        fake = SpectralTriple(
            theta0=1.0,
            eta=one,
            nu_P=Measure(space, [0.5, 0.5]),
            right_residual=0.0,
            left_residual=0.0,
            iterations=1,
        )
        with pytest.raises(NonConvergingMassError):
            measure_eq1_eq2(P, fake, one, one, mu, one, 5)

    def test_rejects_zero_psi2_mass(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        psi2 = WeightedFunction(two_state["space"], [0.0, 1.0])
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        with pytest.raises(ValueError):
            measure_eq1_eq2(
                two_state["P"], two_state["triple"], two_state["one"], psi2, mu, f, 10
            )


class TestMeasureEq2:
    def test_two_state_rate(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        one = two_state["one"]
        _, rep = measure_eq1_eq2(two_state["P"], two_state["triple"], one, one, mu, f, 40)
        assert rep.passed
        assert 0.54 <= rep.fitted_rate <= 0.60

    def test_left_eigenmeasure_exact(self, two_state):
        f = WeightedFunction(two_state["space"], [0.3, -0.2])
        one = two_state["one"]
        _, rep = measure_eq1_eq2(
            two_state["P"], two_state["triple"], one, one, two_state["nu_P"], f, 30
        )
        assert np.max(rep.errors) <= 1e-13

    def test_eigenfunction_exact(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        one = two_state["one"]
        _, rep = measure_eq1_eq2(
            two_state["P"], two_state["triple"], one, one, mu, two_state["eta"], 30
        )
        assert np.max(rep.errors) <= 1e-13

    def test_eq2_is_the_theta0_normalized_semigroup(self, rng):
        # the walk rescales its masses every step; eq2 must still read the
        # raw theta0^-n mu P_n f, here taken from explicit matrix powers
        P = make_operator(random_kernel(rng, 6, 0.1, 3.0))
        one = WeightedFunction.ones(P.space)
        t = power_iterate(P, one)
        mu = Measure(P.space, rng.uniform(0.5, 1.5, 6))
        f = WeightedFunction(P.space, rng.uniform(-1.0, 1.0, 6))
        eq1, eq2 = measure_eq1_eq2(P, t, one, one, mu, f, 25)
        limit = mu.mass(t.eta) * t.nu_P.mass(f)
        for n in range(26):
            m = mu.masses @ np.linalg.matrix_power(P.kernel / t.theta0, n)
            assert abs(eq2.errors[n] - abs(m @ f.values - limit)) <= 1e-12
            ratio = (m @ f.values) / (m @ one.values)
            assert abs(eq1.errors[n] - abs(ratio - t.nu_P.mass(f))) <= 1e-12


def boxed_map_kernel(grid_n):
    model = PdsModel(
        F=vector_field("linear:0.25", 1),
        G=scalar_field("const:1"),
        noise_sd=1.0,
        grid_n=grid_n,
        L=10.0,
        p=2.0,
        a=2.0,
        box=True,
    )
    return build_pds_kernel(model).operator


def walk_kernel(n):
    """Walk on n sites, stay 0.35, step 0.3 each way, killed off both ends: full rank."""
    return 0.35 * np.eye(n) + 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))


class TestMeasureEq3:
    def test_rank_one_kernel_converges_in_one_step(self, two_state):
        eta, nu = two_state["eta"], two_state["nu_P"]
        K = 0.7 * np.outer(eta.values, nu.masses)
        P = TransferOperator(two_state["space"], K)
        triple = SpectralTriple(0.7, eta, nu, 0.0, 0.0, 0)
        rep = measure_eq3(P, triple, two_state["one"], 10)
        assert np.max(rep.errors[1:]) <= 1e-14
        assert rep.errors[0] > 0.1  # identity term differs from the limit

    def test_two_state_rate(self, two_state):
        rep = measure_eq3(two_state["P"], two_state["triple"], two_state["one"], 45)
        assert rep.passed
        assert abs(rep.fitted_rate - 4.0 / 7.0) <= 0.02

    def test_identity_operator_flags_failure(self, two_state):
        I = TransferOperator(two_state["space"], np.eye(2))
        t = power_iterate(I, two_state["one"])
        rep = measure_eq3(I, t, two_state["one"], 30)
        assert not rep.passed

    @pytest.mark.parametrize("n_max", [60, 160])
    @pytest.mark.parametrize("grid_n", [200, 300, 400])
    def test_boxed_map_kernel_passes_on_its_plateau(self, grid_n, n_max):
        # zeta reaches the round-off plateau inside the fit window; where on
        # the plateau the horizon ends must not decide the verdict, nor
        # whether the profile came from the low-rank factors or the dense orbit
        P = boxed_map_kernel(grid_n)
        psi = WeightedFunction.ones(P.space)
        t = power_iterate(P, psi, tol=1e-12)
        rep = measure_eq3(P, t, psi, n_max)
        assert rep.passed
        dense = dense_zeta(P, t, psi, n_max)
        assert _fit_geometric("eq3", np.arange(n_max + 1), dense, 1.0).passed
        certs = [
            certify(ReciprocalInput(P, psi, t.eta, t.theta0, zeta, t.nu_P))
            for zeta in (rep.errors, dense)
        ]
        for name in ("stage", "m", "lam", "rho", "d", "C_R"):
            assert getattr(certs[0], name) == getattr(certs[1], name), name
        assert np.array_equal(certs[0].K.member, certs[1].K.member)

    @pytest.mark.parametrize("grid_n", [300, 401])
    def test_profile_equals_the_identity_seeded_orbit(self, grid_n):
        # the orbit starts at K / theta0: K @ I == K bit for bit, so on a
        # full-rank kernel zeta keeps every bit of the loop that multiplied
        # the identity first
        rng = np.random.default_rng(grid_n)
        for K in (walk_kernel(grid_n), random_kernel(rng, grid_n)):
            assert np.linalg.matrix_rank(K) == grid_n
            P = make_operator(K)
            psi = WeightedFunction(P.space, rng.uniform(0.5, 2.0, grid_n))
            t = power_iterate(P, psi, tol=1e-12)
            rep = measure_eq3(P, t, psi, 12)
            assert np.array_equal(rep.errors, dense_zeta(P, t, psi, 12))

    @pytest.mark.parametrize("grid_n", [300, 401])
    def test_low_rank_profile_matches_the_dense_orbit(self, grid_n):
        # a boxed map kernel has numerical rank r with r (N + r) < N^2, so its
        # profile comes from the rank-r factors; it must agree with the dense
        # orbit and with matrix powers to the fit's round-off floor
        P = boxed_map_kernel(grid_n)
        r = np.linalg.matrix_rank(P.kernel)
        assert r * (grid_n + r) < grid_n**2
        psi = WeightedFunction.ones(P.space)
        t = power_iterate(P, psi, tol=1e-12)
        zeta = measure_eq3(P, t, psi, 40).errors
        floor = ROUNDOFF_REL * zeta[0]
        assert np.max(np.abs(zeta - dense_zeta(P, t, psi, 40))) <= floor
        target = np.outer(t.eta.values, t.nu_P.masses)
        for n in (1, 8, 32):
            Kn = np.linalg.matrix_power(P.kernel / t.theta0, n)
            assert abs(zeta[n] - np.max(np.abs(Kn - target).sum(axis=1))) <= floor

    def test_svd_that_does_not_converge_takes_the_dense_orbit(self, monkeypatch):
        P = boxed_map_kernel(200)
        psi = WeightedFunction.ones(P.space)
        t = power_iterate(P, psi, tol=1e-12)

        def no_convergence(_a):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        rep = measure_eq3(P, t, psi, 30)
        assert np.array_equal(rep.errors, dense_zeta(P, t, psi, 30))

    @pytest.mark.parametrize("kernel", ["boxed", "walk"])
    def test_overflowing_profile_is_non_finite(self, kernel):
        P = boxed_map_kernel(200) if kernel == "boxed" else make_operator(walk_kernel(50))
        psi = WeightedFunction.ones(P.space)
        t = power_iterate(P, psi, tol=1e-12)
        tiny = SpectralTriple(1e-300, t.eta, t.nu_P, 0.0, 0.0, 0)
        with pytest.raises(NonFiniteError) as err:
            measure_eq3(P, tiny, psi, 10)
        assert err.value.step is not None and err.value.index is not None


def dense_zeta(P, t, psi, n_max):
    """zeta_0..zeta_n_max from the dense identity-seeded orbit, the reference."""
    target = np.outer(t.eta.values, t.nu_P.masses)
    M, zeta = np.eye(P.space.size), []
    for _ in range(n_max + 1):
        zeta.append(np.max((np.abs(M - target) @ psi.values) / psi.values))
        M = P.kernel @ M
        M /= t.theta0
    return np.array(zeta)


class TestFitGeometric:
    def test_too_few_points_above_the_floor_fail(self):
        # one isolated error above the floor in the window, none before it
        errors = np.zeros(12)
        errors[0], errors[6] = 1.0, 0.5
        rep = _fit_geometric("eq2", np.arange(12), errors, 2.0)
        assert not rep.passed
        assert rep.fitted_rate == 0.0 and rep.fitted_constant == 0.25


class TestCsvEmission:
    def test_format(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        one = two_state["one"]
        rep, _ = measure_eq1_eq2(two_state["P"], two_state["triple"], one, one, mu, f, 12)
        text = _csv(rep)
        lines = text.split("\n")
        assert lines[0] == "n,error,bound"
        assert len(lines) == 15  # header + 13 rows + trailing newline split
        assert lines[-1] == ""
        n, err, bound = lines[3].split(",")
        assert n == "2"
        # full double precision round-trips
        assert float(err) == rep.errors[2]
        assert "\r" not in text


class TestSkeleton:
    def _skeleton(self, rng, n=8, delta=0.25, count=4):
        space = unit_space(n)
        gen = random_kernel(rng, n, 0.1, 1.0)
        # a substochastic kernel stands for the step exp(delta A)
        K = gen / (1.05 * gen.sum(axis=1, keepdims=True))
        step = TransferOperator(space, K, step_label=delta)
        at_t0 = TransferOperator(
            space, np.linalg.matrix_power(K, count), step_label=delta * count
        )
        return step, at_t0, space

    def test_consistency_and_lambda0(self, rng):
        step, at_t0, space = self._skeleton(rng)
        psi1 = WeightedFunction.ones(space)
        t = power_iterate(at_t0, psi1)  # operator at t0 = 1.0
        rep = skeleton_analysis(step, at_t0, 4, psi1)
        assert rep.t0 == 1.0
        assert abs(rep.lambda0 - np.log(t.theta0)) <= 1e-9
        assert np.isfinite(rep.c_bar) and rep.c_under > 0.0
        assert rep.passed
        assert "consistency_residual" not in _plain(rep)

    def test_exponential_rescale_shifts_lambda0(self, rng):
        step, at_t0, space = self._skeleton(rng)
        psi1 = WeightedFunction.ones(space)
        t = power_iterate(at_t0, psi1)
        rep = skeleton_analysis(step, at_t0, 4, psi1)
        c = 0.35
        scaled_step, scaled_t0 = (
            TransferOperator(
                space, np.exp(c * op.step_label) * op.kernel, step_label=op.step_label
            )
            for op in (step, at_t0)
        )
        t2 = power_iterate(scaled_t0, psi1)
        rep2 = skeleton_analysis(scaled_step, scaled_t0, 4, psi1)
        assert abs(rep2.lambda0 - (rep.lambda0 + c)) <= 1e-9
        assert np.allclose(t2.eta.values, t.eta.values, rtol=1e-9)
        assert np.allclose(t2.nu_P.density, t.nu_P.density, rtol=1e-9)

    def test_walk_reads_the_family_members(self, rng):
        # mu P_t0^k P_(i delta) = mu S^(kn+i): the profiles and sandwich
        # constants from the step S must be those of the members S^i themselves
        step, at_t0, space = self._skeleton(rng)
        members = [np.linalg.matrix_power(step.kernel, i) for i in range(5)]
        psi1 = WeightedFunction(space, rng.uniform(0.5, 2.0, space.size))
        rep = skeleton_analysis(step, at_t0, 4, psi1)
        eta, nu = rep.triple.eta, rep.triple.nu_P
        mu, f = Measure.uniform(space), half_probe(psi1)
        limit = mu.mass(eta) * nu.mass(f)
        e1, e2, ts = [], [], []
        for k in range(8):
            base = mu.masses @ np.linalg.matrix_power(members[4], k)
            for i, kern in enumerate(members[:4]):
                m = base @ kern
                ts.append(k + 0.25 * i)
                e1.append(abs((m @ f.values) / (m @ psi1.values) - nu.mass(f)))
                e2.append(abs((m @ f.values) / rep.triple.theta0 ** ts[-1] - limit))
        assert np.array_equal(rep.eq1.index, ts)
        assert np.allclose(rep.eq1.errors, e1, rtol=1e-9, atol=1e-13)
        assert np.allclose(rep.eq2.errors, e2, rtol=1e-9, atol=1e-13)
        ups = [np.max((kern @ psi1.values) / psi1.values) for kern in members]
        downs = [np.min((kern @ eta.values) / eta.values) for kern in members]
        assert abs(rep.c_bar - max(ups)) <= 1e-14 * max(ups)
        assert abs(rep.c_under - min(downs)) <= 1e-14 * min(downs)

    @pytest.mark.parametrize("t0", [0.5, 1.0])
    @pytest.mark.parametrize("count", [3, 7, 8])
    def test_linspace_labels_pass(self, rng, t0, count):
        # the time index is linspace(0, t0, n + 1) per period, t0 read off P_t0
        step, at_t0, space = self._skeleton(rng, count=count)
        step = TransferOperator(space, step.kernel, step_label=t0 / count)
        at_t0 = TransferOperator(space, at_t0.kernel, step_label=t0)
        rep = skeleton_analysis(step, at_t0, count, WeightedFunction.ones(space))
        labels = np.linspace(0.0, t0, count + 1)
        assert rep.t0 == t0
        assert np.array_equal(rep.eq1.index[:count], labels[:-1])
        assert np.array_equal(rep.eq1.index[count : 2 * count], t0 + labels[:-1])

    def test_family_needs_a_step(self, rng):
        step, at_t0, space = self._skeleton(rng)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                skeleton_analysis(step, at_t0, n, WeightedFunction.ones(space))

    def test_mislabeled_family_raises(self, rng):
        # P_t0 = S^4 at t0 = 1.0: a step not at t0 / n, or a wrong n, is refused
        step, at_t0, space = self._skeleton(rng)
        ones = WeightedFunction.ones(space)
        for label in (0.3, 0.25 * (1.0 + 1e-9), 1.0):
            bad = TransferOperator(space, step.kernel, step_label=label)
            with pytest.raises(ValueError, match="not t0 / n"):
                skeleton_analysis(bad, at_t0, 4, ones)
        for n in (1, 3, 5, 8):
            with pytest.raises(ValueError, match="not t0 / n"):
                skeleton_analysis(step, at_t0, n, ones)

    def test_nonpositive_horizon_raises(self, rng):
        step, at_t0, space = self._skeleton(rng)
        ones = WeightedFunction.ones(space)
        for t0 in (0.0, -1.0, float("inf"), float("nan")):
            bad = TransferOperator(space, at_t0.kernel, step_label=t0)
            with pytest.raises(ValueError, match="not a finite t0 > 0"):
                skeleton_analysis(step, bad, 4, ones)

    def test_inconsistent_family_raises(self, rng):
        # step and P_t0 on different spaces
        step, at_t0, _ = self._skeleton(rng)
        other = unit_space(step.space.size + 1)
        with pytest.raises(SpaceMismatchError):
            skeleton_analysis(
                step,
                TransferOperator(other, np.eye(other.size), step_label=1.0),
                4,
                WeightedFunction.ones(step.space),
            )
