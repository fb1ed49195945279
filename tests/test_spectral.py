import numpy as np
import pytest

from rpos import (
    Measure,
    PdsModel,
    PowerIterationError,
    SemigroupConsistencyError,
    TransferOperator,
    WeightedFunction,
    build_pds_kernel,
    compose,
    measure_eq1,
    measure_eq2,
    measure_eq3,
    power_iterate,
    scalar_field,
    skeleton_analysis,
    vector_field,
)

from conftest import make_operator, perron_oracle, random_kernel, unit_space


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
        with pytest.raises(PowerIterationError) as err:
            power_iterate(P, psi, max_iter=300)
        assert err.value.history.size == 300

    def test_zero_operator_fails(self):
        P = make_operator(np.zeros((3, 3)))
        with pytest.raises(PowerIterationError):
            power_iterate(P, WeightedFunction.ones(P.space))

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
            rep = measure_eq2(P, t.theta0, t.eta, t.nu_P, one, mu, f, n_max)
            assert rep.fitted_rate > 0
            assert 0.95 * gap <= rep.fitted_rate <= 1.05 * gap


class TestMeasureEq1:
    def test_two_state_rate(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        rep = measure_eq1(two_state["P"], two_state["one"], two_state["one"], mu, f, 40)
        assert rep.passed
        assert 0.54 <= rep.fitted_rate <= 0.60

    def test_f_equals_psi1_is_exact(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        rep = measure_eq1(
            two_state["P"], two_state["one"], two_state["one"], mu, two_state["one"], 30
        )
        assert np.max(rep.errors) <= 1e-14
        assert rep.passed and rep.fitted_rate == 0.0

    def test_left_eigenmeasure_is_exact(self, two_state):
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        rep = measure_eq1(
            two_state["P"], two_state["one"], two_state["one"], two_state["nu_P"], f, 30
        )
        assert np.max(rep.errors) <= 1e-13

    def test_rejects_undominated_f(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [2.0, 0.0])
        with pytest.raises(ValueError):
            measure_eq1(two_state["P"], two_state["one"], two_state["one"], mu, f, 10)

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
            measure_eq1(P, one, one, mu, one, 5, triple=fake)

    def test_rejects_zero_psi2_mass(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        psi2 = WeightedFunction(two_state["space"], [0.0, 1.0])
        with pytest.raises(ValueError):
            measure_eq1(
                two_state["P"],
                two_state["one"],
                psi2,
                mu,
                WeightedFunction(two_state["space"], [1.0, 0.0]),
                10,
            )


class TestMeasureEq2:
    def test_two_state_rate(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        rep = measure_eq2(
            two_state["P"], 0.7, two_state["eta"], two_state["nu_P"],
            two_state["one"], mu, f, 40,
        )
        assert rep.passed
        assert 0.54 <= rep.fitted_rate <= 0.60

    def test_left_eigenmeasure_exact(self, two_state):
        f = WeightedFunction(two_state["space"], [0.3, -0.2])
        rep = measure_eq2(
            two_state["P"], 0.7, two_state["eta"], two_state["nu_P"],
            two_state["one"], two_state["nu_P"], f, 30,
        )
        assert np.max(rep.errors) <= 1e-13

    def test_eigenfunction_exact(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        rep = measure_eq2(
            two_state["P"], 0.7, two_state["eta"], two_state["nu_P"],
            two_state["one"], mu, two_state["eta"], 30,
        )
        assert np.max(rep.errors) <= 1e-13


class TestMeasureEq3:
    def test_rank_one_kernel_converges_in_one_step(self, two_state):
        eta, nu = two_state["eta"], two_state["nu_P"]
        K = 0.7 * np.outer(eta.values, nu.masses)
        P = TransferOperator(two_state["space"], K)
        rep = measure_eq3(P, 0.7, eta, nu, two_state["one"], 10)
        assert np.max(rep.errors[1:]) <= 1e-14
        assert rep.errors[0] > 0.1  # identity term differs from the limit

    def test_two_state_rate(self, two_state):
        rep = measure_eq3(
            two_state["P"], 0.7, two_state["eta"], two_state["nu_P"],
            two_state["one"], 45,
        )
        assert rep.passed
        assert abs(rep.fitted_rate - 4.0 / 7.0) <= 0.02

    def test_identity_operator_flags_failure(self, two_state):
        I = TransferOperator.identity(two_state["space"], step_label=1)
        t = power_iterate(I, two_state["one"])
        rep = measure_eq3(I, t.theta0, t.eta, t.nu_P, two_state["one"], 30)
        assert not rep.passed

    @pytest.mark.parametrize("n_max", [60, 160])
    @pytest.mark.parametrize("grid_n", [200, 300, 400])
    def test_boxed_map_kernel_passes_on_its_plateau(self, grid_n, n_max):
        # zeta reaches the round-off plateau inside the fit window; where on
        # the plateau the horizon ends must not decide the verdict.
        model = PdsModel(
            F=vector_field("linear:0.25", 1),
            G=scalar_field("const:1"),
            noise_sd=1.0,
            grid_n=grid_n,
            grid_lo=-10.0,
            grid_hi=10.0,
            p=2.0,
            a=2.0,
            domain_lo=-10.0,
            domain_hi=10.0,
        )
        P = build_pds_kernel(model).operator
        psi = WeightedFunction.ones(P.space)
        t = power_iterate(P, psi, tol=1e-12)
        rep = measure_eq3(P, t.theta0, t.eta, t.nu_P, psi, n_max)
        assert rep.passed


class TestCsvEmission:
    def test_format(self, two_state):
        mu = Measure.point_mass(two_state["space"], 0)
        f = WeightedFunction(two_state["space"], [1.0, 0.0])
        rep = measure_eq1(two_state["P"], two_state["one"], two_state["one"], mu, f, 12)
        text = rep.to_csv()
        lines = text.split("\n")
        assert lines[0] == "n,error,bound"
        assert len(lines) == 15  # header + 13 rows + trailing newline split
        assert lines[-1] == ""
        n, err, bound = lines[3].split(",")
        assert n == "2"
        # full double precision round-trips
        assert float(err) == rep.errors[2]
        assert "\r" not in text


def geometric_family(kernel, space, delta, count):
    ops = [TransferOperator.identity(space, step_label=0.0)]
    base = TransferOperator(space, kernel, step_label=delta)
    cur = base
    for _ in range(count):
        ops.append(cur)
        cur = compose(cur, base)
    return ops


class TestSkeleton:
    def _family(self, rng, n=8, delta=0.25, count=8):
        space = unit_space(n)
        gen = random_kernel(rng, n, 0.1, 1.0)
        # embed as exp(delta A) powers: use a substochastic kernel directly
        K = gen / (1.05 * gen.sum(axis=1, keepdims=True))
        return geometric_family(K, space, delta, count), space

    def test_consistency_and_lambda0(self, rng):
        family, space = self._family(rng)
        psi1 = WeightedFunction.ones(space)
        t = power_iterate(family[4], psi1)  # operator at t0 = 1.0
        rep = skeleton_analysis(family, 1.0, psi1)
        assert rep.consistency_residual <= 1e-12
        assert abs(rep.lambda0 - np.log(t.theta0)) <= 1e-9
        assert np.isfinite(rep.c_bar) and rep.c_under > 0.0
        assert rep.passed

    def test_inconsistent_family_raises(self, rng):
        family, space = self._family(rng)
        bad = list(family)
        k = bad[2].kernel.copy()
        k[0, 0] *= 1.5
        bad[2] = TransferOperator(space, k, step_label=bad[2].step_label)
        with pytest.raises(SemigroupConsistencyError):
            skeleton_analysis(bad, 1.0, WeightedFunction.ones(space))

    def test_exponential_rescale_shifts_lambda0(self, rng):
        family, space = self._family(rng)
        psi1 = WeightedFunction.ones(space)
        t = power_iterate(family[4], psi1)
        rep = skeleton_analysis(family, 1.0, psi1)
        c = 0.35
        scaled = [
            TransferOperator(
                space, np.exp(c * op.step_label) * op.kernel, step_label=op.step_label
            )
            for op in family
        ]
        t2 = power_iterate(scaled[4], psi1)
        rep2 = skeleton_analysis(scaled, 1.0, psi1)
        assert abs(rep2.lambda0 - (rep.lambda0 + c)) <= 1e-9
        assert np.allclose(t2.eta.values, t.eta.values, rtol=1e-9)
        assert np.allclose(t2.nu_P.density, t.nu_P.density, rtol=1e-9)

    def test_missing_t0_rejected(self, rng):
        family, space = self._family(rng)
        with pytest.raises(ValueError):
            skeleton_analysis(family[:3], 9.0, WeightedFunction.ones(space))
