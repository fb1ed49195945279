import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import rpos.models
from rpos import (
    DiffusionModel,
    GridCoverageError,
    PdsModel,
    StabilityError,
    TransferOperator,
    WeightedFunction,
    apply,
    build_diffusion_generator,
    build_pds_kernel,
    check_hypotheses,
    girsanov_check,
    mc_feynman_kac,
    run_pds_analysis,
    scalar_field,
    skeleton_analysis,
    tilt_submarkov,
    uniformized_exponential,
    vector_field,
)
from rpos.core import ROUNDOFF_REL, NonFiniteError
from rpos.models import ConfigError, _poisson_cut, _poisson_weights, _uniformized


def test_import_loads_no_scipy_module():
    # Only the kernel builds need scipy (scipy.special and scipy.sparse), and
    # they import it when they run, so importing the package and its command
    # line loads no scipy module at all.
    env = {**os.environ, "PYTHONPATH": str(Path(rpos.models.__file__).parents[1])}
    check = (
        "import sys, rpos, rpos.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def small_diffusion(b, r, L, dim=1, grid_n=50):
    return DiffusionModel(
        b=vector_field(b, dim), r=scalar_field(r), L=L, grid_n=grid_n, t0=1.0, dim=dim
    )


def p_t0(fam):
    """P_t0 = S^n of a diffusion family, as ``skeleton_analysis`` powers it."""
    kernel = np.linalg.matrix_power(fam.step.kernel, fam.n_substeps)
    return TransferOperator(fam.step.space, kernel)


def small_pds(**kw):
    args = dict(
        F=vector_field("linear:0.25", 1),
        G=scalar_field("const:1"),
        noise_sd=1.0,
        grid_n=160,
        L=8.0,
        p=2.0,
        a=2.0,
    )
    args.update(kw)
    return PdsModel(**args)


class TestCatalog:
    def test_vector_fields(self):
        x = np.array([[1.0], [2.0]])
        assert np.allclose(vector_field("linear:0.25", 1)(x), [[0.25], [0.5]])
        assert np.allclose(vector_field("affine:1,-1", 1)(x), [[0.0], [-1.0]])
        assert np.allclose(vector_field("const:3", 1)(x), [[3.0], [3.0]])
        assert np.allclose(vector_field("zero", 1)(x), [[0.0], [0.0]])

    def test_scalar_fields(self):
        x = np.array([[3.0], [-4.0]])
        assert np.allclose(scalar_field("const:2")(x), [2.0, 2.0])
        assert np.allclose(scalar_field("exp_abs:1")(x), np.exp([3.0, 4.0]))
        assert np.allclose(scalar_field("affine_sum:1,2")(x), [7.0, -7.0])

    @pytest.mark.parametrize(
        "field",
        [
            vector_field("zero", 2),
            vector_field("const:3", 2),
            vector_field("linear:0.25", 2),
            vector_field("affine:1,-1", 2),
            scalar_field("zero"),
            scalar_field("const:2"),
            scalar_field("exp_abs:0.3"),
            scalar_field("affine_sum:1,-0.7"),
        ],
        ids=["v-zero", "v-const", "v-linear", "v-affine", "zero", "const", "exp_abs", "affine_sum"],
    )
    def test_out_gets_the_same_bits(self, field, rng):
        x = rng.normal(size=(50, 2))
        fresh = field(x)
        out = np.full_like(fresh, np.nan)
        assert field(x, out=out) is out
        assert np.array_equal(out.view(np.int64), fresh.view(np.int64))

    def test_bad_selectors(self):
        with pytest.raises(ConfigError):
            vector_field("spline:1", 1)
        with pytest.raises(ConfigError):
            scalar_field("const:a")
        with pytest.raises(ConfigError):
            vector_field("affine:1", 1)  # needs two parameters

    @pytest.mark.parametrize(
        "build",
        [
            lambda: vector_field("linear:nan", 1),
            lambda: vector_field("affine:1,inf", 2),
            lambda: scalar_field("const:-inf"),
            lambda: scalar_field("affine_sum:nan,1"),
        ],
        ids=["linear-nan", "affine-inf", "const-minus-inf", "affine-sum-nan"],
    )
    def test_nonfinite_parameters_rejected(self, build):
        with pytest.raises(ConfigError, match="finite"):
            build()


class TestPdsKernel:
    def test_conservative_case(self):
        model = small_pds(F=vector_field("zero", 1))
        built = build_pds_kernel(model)
        mass = apply(built.operator, WeightedFunction.ones(built.operator.space))
        assert np.all(np.abs(mass.values - 1.0) <= 1e-6)
        assert np.max(built.row_leak) <= 1e-6

    def test_everywhere_positive(self):
        built = build_pds_kernel(small_pds())
        assert np.all(built.operator.kernel > 0.0)

    def test_narrow_grid_rejected(self):
        model = small_pds(L=1.0)
        with pytest.raises(GridCoverageError) as err:
            build_pds_kernel(model)
        assert err.value.leak > 0.01

    def test_psi1_tabulation(self):
        built = build_pds_kernel(small_pds(a=1.5, p=2.0))
        pts = built.operator.space.points
        assert np.allclose(
            built.psi1.values, np.exp(1.5 * np.abs(pts[:, 0])), rtol=1e-14
        )

    def test_row_matches_mc_oracle(self, rng):
        # one-step cell masses vs direct simulation of F(x) + noise
        model = small_pds()
        built = build_pds_kernel(model)
        space = built.operator.space
        i = int(np.argmin(np.abs(space.points[:, 0] - 1.0)))
        x = space.points[i]
        n_samp = 400_000
        y = model.F(np.full((n_samp, 1), x)) + model.noise_sd * rng.standard_normal(
            (n_samp, 1)
        )
        h = space.ref_weights[0]
        lo = space.points[0, 0] - h / 2.0
        cells = np.clip(((y[:, 0] - lo) // h).astype(int), 0, space.size - 1)
        for j in rng.integers(0, space.size, 20):
            p_hat = np.mean(cells == j)
            se = max(np.sqrt(p_hat * (1 - p_hat) / n_samp), 1e-7)
            assert abs(built.operator.kernel[i, j] - p_hat) <= 4 * se + 1e-4

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            small_pds(noise_sd=0.0)
        with pytest.raises(ValueError):
            small_pds(p=1.0)
        with pytest.raises(ValueError):
            small_pds(a=0.5, p=2.0)  # needs 1/a < p - 1
        for bad in ({"L": 0.0}, {"L": -8.0}, {"L": float("inf")}, {"grid_n": 0}):
            with pytest.raises(ConfigError):
                small_pds(**bad)

    @pytest.mark.parametrize("name", ["noise_sd", "p", "a", "L"])
    def test_nan_parameters_rejected(self, name):
        with pytest.raises(ValueError):
            small_pds(**{name: float("nan")})


class TestPdsPipeline:
    def test_condition_passes_at_small_scale(self):
        analysis = run_pds_analysis(small_pds())
        assert analysis.g_report.overall
        assert analysis.g_report.g4.passed
        assert all(v == 1 for v in analysis.g_report.g4.n4.values())
        assert analysis.g_report.g1.n1 == 1
        assert 0.9 <= analysis.triple.theta0 <= 1.0 + 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: eq1 and eq2 fit the plateau where the two "
        "converged limits agree to the triple's accuracy",
    )
    def test_passing_fits_decay_no_slower_than_the_spectral_gap(self):
        # |lambda2| / theta0 = 0.5 here, yet eq1 passes at rate 0.9999971
        model = small_pds(F=vector_field("linear:0.5", 1), noise_sd=0.8, grid_n=200, L=10.0)
        analysis = run_pds_analysis(model, eq_n_max=40)
        moduli = np.sort(np.abs(np.linalg.eigvals(analysis.build.operator.kernel)))
        ratio = moduli[-2] / analysis.triple.theta0
        for fit in (analysis.eq1, analysis.eq2):
            if fit.passed:
                assert fit.fitted_rate <= ratio + 0.01

    def test_2d_grid_supported(self):
        model = PdsModel(
            F=vector_field("linear:0.2", 2),
            G=scalar_field("const:1"),
            noise_sd=1.0,
            grid_n=24,
            L=6.0,
            p=2.0,
            a=2.0,
            dim=2,
        )
        built = build_pds_kernel(model)
        assert built.operator.space.size == 24 * 24
        mass = apply(built.operator, WeightedFunction.ones(built.operator.space))
        assert np.all(mass.values <= 1.0 + 1e-9)
        assert np.max(mass.values) >= 0.99


class TestGridOrder:
    # The diffusion stencil steps n points along the first axis and one along
    # the second, so its grid must vary the first axis slowest; the map grid
    # comes from the same helper.
    @staticmethod
    def assert_first_axis_slowest(points, n, first, second):
        x, y = points[:, 0].reshape(n, n), points[:, 1].reshape(n, n)
        np.testing.assert_array_equal(x, np.repeat(first[:, None], n, axis=1))
        np.testing.assert_array_equal(y, np.repeat(second[None, :], n, axis=0))

    def test_map_grid(self):
        model = PdsModel(
            F=vector_field("linear:0.2", 2),
            G=scalar_field("const:1"),
            noise_sd=1.0,
            grid_n=24,
            L=5.0,
            p=2.0,
            a=2.0,
            dim=2,
        )
        space = build_pds_kernel(model).operator.space
        mid = np.arange(24) + 0.5
        axis = -5.0 + 10 / 24 * mid
        self.assert_first_axis_slowest(space.points, 24, axis, axis)
        assert space.ref_weights == pytest.approx(np.full(24 * 24, 10 / 24 * 10 / 24), rel=1e-15)

    def test_diffusion_grid(self):
        model = small_diffusion("affine:0.5,-0.3", "const:0", L=3.0, dim=2, grid_n=12)
        space = build_diffusion_generator(model, n_substeps=2).step.space
        axis = model.h * np.arange(1, 13)
        self.assert_first_axis_slowest(space.points, 12, axis, axis)
        assert space.ref_weights == pytest.approx(np.full(12 * 12, model.h**2), rel=1e-15)

    def test_2d_generator_is_the_kronecker_sum_of_the_1d_one(self):
        # With a drift that acts per coordinate and r = 0, the 2D stencil is
        # A1 (+) A1; a wrong stride would couple nodes along the wrong axis.
        A1, A2 = (
            build_diffusion_generator(
                small_diffusion("affine:0.5,-0.3", "const:0", L=3.0, dim=dim, grid_n=12),
                n_substeps=1,
            ).generator
            for dim in (1, 2)
        )
        eye = np.eye(12)
        kron_sum = np.kron(A1, eye) + np.kron(eye, A1)
        off = ~np.eye(12 * 12, dtype=bool)
        np.testing.assert_array_equal(A2[off], kron_sum[off])
        np.testing.assert_allclose(np.diag(A2), np.diag(kron_sum), rtol=1e-14, atol=0.0)


class TestHypotheses:
    def test_pds_contraction_diverges(self):
        rep = check_hypotheses(small_pds())
        assert rep.diverging
        assert not rep.warnings
        assert rep.details["sup_inv_G"] == 1.0

    def test_expanding_map_flagged(self):
        rep = check_hypotheses(small_pds(F=vector_field("linear:2", 1), p=2.0))
        assert not rep.diverging
        assert rep.warnings

    def test_other_models_are_a_type_error(self):
        with pytest.raises(TypeError, match="DiffusionModel"):
            check_hypotheses(small_diffusion("affine:1,-1", "const:0", 10.0))


class TestUniformization:
    def test_matches_dense_expm(self, rng):
        n = 30
        A = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(A, 0.0)
        A[np.arange(n), np.arange(n)] = -A.sum(axis=1) - rng.uniform(0, 0.5, n)
        for t in (0.05, 0.7, 3.0):
            ours = uniformized_exponential(A, t)
            oracle = scipy.linalg.expm(t * A)
            assert np.max(np.abs(ours - oracle)) <= 1e-10
            assert np.all(ours >= 0.0)

    @pytest.mark.parametrize(
        "dim, grid_n, L, t",
        [(1, 150, 12.0, 1.0), (2, 12, 3.0, 1.0)],  # lam t ~ 158 and ~ 38
    )
    def test_stencil_generator_matches_expm(self, dim, grid_n, L, t):
        # The diffusion stencils: sparse Poisson terms, then dense halvings.
        model = DiffusionModel(
            b=vector_field("affine:1,-1", dim),
            r=scalar_field("const:0"),
            L=L,
            grid_n=grid_n,
            t0=t,
            dim=dim,
        )
        A = build_diffusion_generator(model, n_substeps=1).generator
        ours = uniformized_exponential(A, t)
        assert type(ours) is np.ndarray
        assert np.max(np.abs(ours - scipy.linalg.expm(t * A))) <= 1e-10
        assert np.all(ours >= 0.0)

    def test_positive_row_sums_match_expm(self, rng):
        # Row sums up to 0.5 above zero: ||M||_inf > 1, and the Poisson cut
        # is taken at nu = Lambda dt ||M||_inf rather than at Lambda dt. The
        # cut aims at ROUNDOFF_REL = 1e-12 of the sum: up to 6.6e-13 on 5 draws.
        n = 30
        A = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(A, 0.0)
        A[np.arange(n), np.arange(n)] = -A.sum(axis=1) + rng.uniform(0, 0.5, n)
        for t in (0.05, 0.7, 3.0):
            oracle = scipy.linalg.expm(t * A)
            ours = uniformized_exponential(A, t)
            assert np.max(np.abs(ours - oracle)) <= 2e-12 * np.max(oracle)

    def test_constant_diagonal_keeps_its_off_diagonals(self):
        # After the shift the diagonal is all zero, but B is not.
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        oracle = (np.exp(2.0) * np.ones((2, 2)) + np.array([[1.0, -1.0], [-1.0, 1.0]])) / 2
        # the series is cut at ROUNDOFF_REL = 1e-12 of its bound (no halving)
        assert np.max(np.abs(uniformized_exponential(A, 1.0) - oracle)) <= 1e-12 * np.max(oracle)

    def test_top_eigenvalue_to_the_roundoff_of_the_squarings(self):
        # t = 1 takes 9 halvings here. A Poisson cut at 1e-12 of the sum is
        # multiplied by up to 2^9 by the squarings and put the top eigenvalue
        # 1.2e-10 off; the cut at 1e-12 / 2^9 leaves the squarings' own 5e-13.
        L, grid_n, v = 5.0, 400, 0.5
        A = build_diffusion_generator(
            small_diffusion(f"const:{v}", "const:0", L, grid_n=grid_n), n_substeps=1
        ).generator
        assert _uniformized(A, 1.0, np.eye(grid_n))[2] == 9
        h = L / (grid_n + 1)
        up, down = 0.5 / h**2 + v / (2 * h), 0.5 / h**2 - v / (2 * h)
        exact = -1 / h**2 + 2 * np.sqrt(up * down) * np.cos(np.pi / (grid_n + 1))
        top = float(np.max(np.linalg.eigvals(uniformized_exponential(A, 1.0)).real))
        assert abs(top - np.exp(exact)) <= 1e-11

    @pytest.mark.parametrize(
        "i, j, value",
        [(0, 1, np.inf), (0, 1, np.nan), (1, 1, np.nan), (1, 1, np.inf), (1, 1, -np.inf)],
    )
    def test_nonfinite_generator_raises(self, i, j, value):
        A = -np.eye(4) + 0.5 * np.eye(4, k=1)
        A[i, j] = value
        with pytest.raises((NonFiniteError, ValueError)):
            uniformized_exponential(A, 1.0)

    def test_zero_time_is_identity(self, rng):
        A = -np.eye(4)
        assert np.array_equal(uniformized_exponential(A, 0.0), np.eye(4))

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_nonfinite_time_rejected(self, t):
        # inf halves forever and nan never ends the Poisson series.
        with pytest.raises(ValueError, match="finite"):
            uniformized_exponential(-np.eye(4) + 0.5 * np.eye(4, k=1), t)


def shifted_family(dim, grid_n, L, t0):
    model = DiffusionModel(
        b=vector_field("affine:1,-1", dim),
        r=scalar_field("const:0"),
        L=L,
        grid_n=grid_n,
        t0=t0,
        dim=dim,
    )
    return build_diffusion_generator(model)


class TestOnesSeries:
    @pytest.mark.parametrize(
        "dim, grid_n, L, t0, terms",
        [(1, 10, 3.0, 0.5, 35), (1, 400, 12.0, 1.0, 1373), (2, 28, 5.0, 1.0, 146)],
    )
    def test_matches_the_dense_exponential_on_the_ones_vector(self, dim, grid_n, L, t0, terms):
        A = shifted_family(dim, grid_n, L, t0).shifted_generator
        ours, k, halvings = _uniformized(A, t0, np.ones(A.shape[0]))
        oracle = scipy.linalg.expm(t0 * A) @ np.ones(A.shape[0])
        assert np.max(np.abs(ours - oracle)) <= ROUNDOFF_REL * np.max(oracle)
        assert k == terms == _poisson_cut(float(np.max(-np.diag(A))) * t0, ROUNDOFF_REL)
        assert halvings == 0  # a vector cannot be squared back

    def test_weights_past_the_exponential_underflow(self):
        # e^-nu is 0 in floats here; the weights grow out from the mode instead.
        nu = 13188.0
        w = _poisson_weights(nu, _poisson_cut(nu, ROUNDOFF_REL))
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-12
        mode = np.exp(nu * np.log(nu) - nu - math.lgamma(nu + 1.0))
        assert w[int(nu)] == pytest.approx(mode, rel=1e-9)

    def test_positive_row_sum_matches_expm(self):
        # Lambda = 1 and ||M||_inf = 1.5: the cut is taken at nu = 1.5
        A = np.array([[-1.0, 1.5], [0.5, -1.0]])
        ours = _uniformized(A, 1.0, np.ones(2))[0]
        oracle = scipy.linalg.expm(A) @ np.ones(2)
        assert np.max(np.abs(ours - oracle)) <= ROUNDOFF_REL * np.max(oracle)

    @pytest.mark.parametrize("t", [0.5, 3.0])
    def test_strong_killing_keeps_the_whole_poisson_mass(self, t):
        # ||M||_inf = 1 / 11. The weights of 0..K are normalized by their
        # sum, so a cut at Lambda dt ||M||_inf would drop Poisson(Lambda dt)
        # mass and spread it back over the kept terms; the cut is taken at
        # Lambda dt max(1, ||M||_inf).
        n = 40
        A = -11.0 * np.eye(n) + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
        step, _, halvings = _uniformized(A, t, np.eye(n))
        oracle = scipy.linalg.expm(math.ldexp(t, -halvings) * A)
        assert np.max(np.abs(step - oracle)) <= ROUNDOFF_REL * np.max(oracle)
        ours = _uniformized(A, t, np.ones(n))[0]
        oracle = scipy.linalg.expm(t * A) @ np.ones(n)
        assert np.max(np.abs(ours - oracle)) <= ROUNDOFF_REL * np.max(oracle)

    def test_girsanov_holds_no_dense_square(self):
        fam = shifted_family(2, 28, 5.0, 1.0)
        nbytes = fam.step.space.size**2 * 8
        # the series imports scipy.sparse lazily: not to be counted
        girsanov_check(shifted_family(1, 10, 3.0, 0.5))
        tracemalloc.start()
        try:
            girsanov_check(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes, f"peak {peak / nbytes:.2f} N^2 floats"


class TestDiffusion:
    @pytest.mark.parametrize("name", ["L", "t0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_box_or_time_rejected(self, name, value):
        base = dict(b=vector_field("zero", 1), r=scalar_field("const:0"), L=6.0, t0=1.0)
        with pytest.raises(ValueError, match="finite"):
            DiffusionModel(grid_n=20, **{**base, name: value})

    def test_heat_kernel_absorbs_and_fills(self):
        base = dict(b=vector_field("zero", 1), r=scalar_field("const:0"), t0=0.5)
        fam = build_diffusion_generator(DiffusionModel(L=6.0, grid_n=120, **base))
        ones = WeightedFunction.ones(fam.step.space)
        mass = apply(p_t0(fam), ones)
        assert np.all(mass.values < 1.0)  # strict absorption
        fam_wide = build_diffusion_generator(DiffusionModel(L=24.0, grid_n=480, **base))
        mid = fam_wide.step.space.size // 2
        mass_wide = apply(p_t0(fam_wide), WeightedFunction.ones(fam_wide.step.space))
        assert mass_wide.values[mid] > mass.values[mass.values.size // 2]
        assert mass_wide.values[mid] > 0.999

    def test_family_is_consistent_and_analyzable(self):
        model = DiffusionModel(
            b=vector_field("affine:1,-1", 1),
            r=scalar_field("const:0"),
            L=12.0,
            grid_n=150,
            t0=1.0,
        )
        fam = build_diffusion_generator(model, n_substeps=8)
        rep = skeleton_analysis(fam.step, fam.n_substeps, model.t0, fam.psi)
        assert rep.passed
        assert rep.lambda0 < 0.0  # killing at the origin boundary

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize(
        "dim, grid_n, L, drift",
        [(1, 150, 12.0, "affine:1,-1"), (2, 12, 3.0, "affine:0.5,-0.3")],
    )
    def test_p_t0_is_the_step_to_the_nth(self, dim, grid_n, L, drift, n):
        # odd n takes matrix_power's multiply branch as well as its squarings
        model = DiffusionModel(
            b=vector_field(drift, dim),
            r=scalar_field("const:0"),
            L=L,
            grid_n=grid_n,
            t0=1.0,
            dim=dim,
        )
        fam = build_diffusion_generator(model, n_substeps=n)
        assert fam.n_substeps == n
        # the step is at t0 / n, the first skeleton time, bit for bit
        delta = np.linspace(0.0, model.t0, n + 1)[1]
        assert model.t0 / n == delta
        assert np.array_equal(fam.step.kernel, uniformized_exponential(fam.generator, delta))
        at_t0 = p_t0(fam).kernel
        oracle = scipy.linalg.expm(model.t0 * fam.generator)
        assert np.max(np.abs(at_t0 - oracle)) <= 1e-10
        chain = fam.step.kernel
        for _ in range(n - 1):
            chain = chain @ fam.step.kernel
        peak = np.max(np.abs(chain))
        assert np.max(np.abs(at_t0 - chain)) <= 1e-12 * peak

    def test_skeleton_memory_does_not_grow_with_substeps(self):
        # only S and P_t0 are kept: a list of all 65 members would hold
        # 65 N^2 floats, far above this bound
        model = small_diffusion("affine:1,-1", "const:0", 12.0, grid_n=200)
        nbytes = model.grid_n**2 * 8
        # the exponential imports scipy.sparse lazily: ~1.4 MB not to be counted
        build_diffusion_generator(small_diffusion("zero", "const:0", 6.0, grid_n=10))
        tracemalloc.start()
        try:
            fam = build_diffusion_generator(model, n_substeps=64)
            skeleton_analysis(fam.step, fam.n_substeps, model.t0, fam.psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * nbytes, f"peak {peak / nbytes:.1f} N^2 floats"

    def test_mesh_stability_guard(self):
        model = DiffusionModel(
            b=vector_field("affine:0,-40", 1),  # |b| up to 40 L: needs tiny h
            r=scalar_field("const:0"),
            L=2.0,
            grid_n=10,
            t0=0.1,
        )
        with pytest.raises(StabilityError, match="need h <="):
            build_diffusion_generator(model)

    def test_girsanov_stencil_fails_before_any_exponential(self, monkeypatch):
        # h = 6/7 suits the drift b = 0.5 (h <= 2) but not b + 1 (h <= 2/3).
        model = DiffusionModel(
            b=vector_field("const:0.5", 1),
            r=scalar_field("const:0"),
            L=6.0,
            grid_n=6,
            t0=1.0,
        )

        def no_exponential(A, t):
            raise AssertionError("exponential taken before both stencils were checked")

        monkeypatch.setattr(rpos.models, "uniformized_exponential", no_exponential)
        with pytest.raises(StabilityError, match=r"^Girsanov drift b \+ 1: .*need h <= 0.6667"):
            build_diffusion_generator(model)

    def test_tilt_is_submarkov(self):
        model = DiffusionModel(
            b=vector_field("affine:1,-1", 1),
            r=scalar_field("const:0"),
            L=12.0,
            grid_n=150,
            t0=1.0,
        )
        fam = build_diffusion_generator(model)
        rep = girsanov_check(fam)
        tilt = tilt_submarkov(p_t0(fam), fam.psi, c=np.exp(rep.a * model.t0))
        assert tilt.max_row_mass <= 1.0 + 1e-9

    def test_2d_generator_matches_dense_expm(self):
        model = DiffusionModel(
            b=vector_field("affine:0.5,-0.3", 2),
            r=scalar_field("const:-0.1"),
            L=3.0,
            grid_n=12,
            t0=0.4,
            dim=2,
        )
        fam = build_diffusion_generator(model, n_substeps=4)
        oracle = scipy.linalg.expm(model.t0 * fam.generator)
        at_t0 = p_t0(fam).kernel
        assert np.max(np.abs(at_t0 - oracle)) <= 1e-10
        assert np.all(at_t0.sum(axis=1) < 1.0)  # killed at all faces

    def test_girsanov_discrepancy_shrinks_with_mesh(self):
        base = dict(
            b=vector_field("affine:1,-1", 1), r=scalar_field("const:0"), t0=0.5
        )
        coarse = girsanov_check(
            build_diffusion_generator(DiffusionModel(L=8.0, grid_n=80, **base))
        )
        fine = girsanov_check(
            build_diffusion_generator(DiffusionModel(L=8.0, grid_n=160, **base))
        )
        assert fine.discrepancy < coarse.discrepancy
        assert fine.discrepancy < 0.01

    @pytest.mark.parametrize(
        "dim, grid_n, L, t0, halvings",
        [(1, 10, 3.0, 0.5, 0), (1, 400, 12.0, 1.0, 7), (2, 28, 5.0, 1.0, 3)],
    )
    def test_girsanov_matches_the_dense_exponential(self, dim, grid_n, L, t0, halvings):
        # the check's one Poisson series on the ones vector (its term counts
        # in TestOnesSeries) stands for the dense exp(t0 A_bar), whose step
        # is halved h times and squared back
        fam = shifted_family(dim, grid_n, L, t0)
        n = fam.step.space.size
        assert _uniformized(fam.shifted_generator, t0, np.eye(n))[2] == halvings
        rep = girsanov_check(fam)
        tilt = tilt_submarkov(p_t0(fam), fam.psi, c=np.exp(fam.a * t0))
        ones = np.ones(fam.step.space.size)
        dense = uniformized_exponential(fam.shifted_generator, t0)
        ref = np.max(np.abs(tilt.tilted.kernel @ ones - dense @ ones))
        assert abs(rep.discrepancy - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_girsanov_reads_the_tilt_row_masses(self, n):
        # S^n psi / (c psi) from the step is the row mass of the sub-Markov
        # tilt of S^n itself, so the check stays tied to tilt_submarkov
        model = DiffusionModel(
            b=vector_field("affine:1,-1", 1),
            r=scalar_field("const:0"),
            L=6.0,
            grid_n=60,
            t0=0.5,
        )
        fam = build_diffusion_generator(model, n_substeps=n)
        rep = girsanov_check(fam)
        tilt = tilt_submarkov(p_t0(fam), fam.psi, c=np.exp(fam.a * model.t0))
        direct = scipy.linalg.expm(model.t0 * fam.shifted_generator) @ np.ones(fam.step.space.size)
        ref = np.max(np.abs(tilt.row_masses - direct))
        assert abs(rep.discrepancy - ref) <= 1e-10 * ref
        assert abs(rep.relative - ref / np.max(direct)) <= 1e-10 * rep.relative

    def test_girsanov_tilt_divides_by_psi_before_the_normalizer(self):
        # At t0 = 1290, c = exp(a t0) = exp(708) is finite, but c psi
        # overflows where a t0 + x > 709.8 ("overflow encountered in
        # multiply", an error under this suite's warning filter).
        model = DiffusionModel(
            b=vector_field("zero", 1),
            r=scalar_field("const:0.0488"),
            L=10.0,
            grid_n=30,
            t0=1290.0,
        )
        fam = build_diffusion_generator(model)
        rep = girsanov_check(fam)
        psi = fam.psi.values
        moved = np.linalg.matrix_power(fam.step.kernel, fam.n_substeps) @ psi
        tilted = np.exp(np.log(moved) - np.log(psi) - fam.a * model.t0)
        step, _, halvings = _uniformized(fam.shifted_generator, model.t0, np.eye(psi.size))
        direct = np.ones(psi.size)
        for _ in range(2**halvings):
            direct = step @ direct
        ref = np.max(np.abs(tilted - direct))
        assert abs(rep.discrepancy - ref) <= 1e-10 * ref

    def test_girsanov_relative_gap_shows_at_long_horizons(self):
        # Both sides decay like exp(-(a - lambda0) t0). At t0 = 1000 the sup
        # of the gap is 3.9e-237 and reads as agreement, but the direct side
        # peaks at 7.7e-242: the tilt is 5e4 times it.
        model = DiffusionModel(
            b=vector_field("zero", 1),
            r=scalar_field("const:0.0488"),
            L=10.0,
            grid_n=30,
            t0=1000.0,
        )
        rep = girsanov_check(build_diffusion_generator(model))
        assert rep.discrepancy < 1e-230
        assert rep.relative > 1e4


def skeleton_lambda0(b, L, grid_n, dim=1):
    fam = build_diffusion_generator(small_diffusion(b, "const:0", L, dim=dim, grid_n=grid_n))
    return skeleton_analysis(fam.step, fam.n_substeps, fam.model.t0, fam.psi).lambda0


class TestClosedFormOracles:
    @pytest.mark.parametrize(
        "v, L, grid_n, dim",
        [(0.5, 5.0, 200, 1), (0.5, 5.0, 400, 1), (0.5, 5.0, 28, 2),
         (-0.7, 4.0, 100, 1), (-0.7, 4.0, 20, 2)],
    )
    def test_constant_drift_matches_the_exact_stencil_eigenvalue(self, v, L, grid_n, dim):
        # The central stencil of a constant drift v on (0, L) is tridiagonal
        # Toeplitz on each axis, with top eigenvalue
        # -1/h^2 + 2 sqrt(up down) cos(pi / (n + 1)); the product box adds
        # dim of them. The skeleton is off by up to 1.0e-11 (grid 200); the
        # bound leaves a factor 5 over that.
        h = L / (grid_n + 1)
        up, down = 0.5 / h**2 + v / (2 * h), 0.5 / h**2 - v / (2 * h)
        exact = dim * (-1 / h**2 + 2 * np.sqrt(up * down) * np.cos(np.pi / (grid_n + 1)))
        assert skeleton_lambda0(f"const:{v}", L, grid_n, dim) == pytest.approx(exact, rel=5e-11)

    def test_killed_ou_converges_at_second_order(self):
        # 1/2 f'' + (1 - x) f' on (0, inf), killed at 0, has top eigenvalue
        # -nu with D_nu(-sqrt 2) = 0 (parabolic cylinder function, Abramowitz
        # and Stegun ch. 19); the wall at L = 12 moves it by about e^-121.
        import mpmath

        nu = float(mpmath.findroot(lambda x: mpmath.pcfd(x, -mpmath.sqrt(2)), 0.2))
        assert nu == pytest.approx(0.2342338717, abs=1e-10)
        errors = [skeleton_lambda0("affine:1,-1", 12.0, n) + nu for n in (200, 400, 800)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestMonteCarlo:
    def test_conservative_walk_is_exactly_one(self):
        model = small_pds(F=vector_field("zero", 1))
        est = mc_feynman_kac(
            model, [0.0], 5, lambda y: np.ones(y.shape[0]), 500, seed=7
        )
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.n_killed == 0

    def test_deterministic_given_seed(self):
        model = small_pds()
        f = lambda y: np.exp(np.linalg.norm(y, axis=1))
        a = mc_feynman_kac(model, [0.5], 4, f, 2000, seed=99)
        b = mc_feynman_kac(model, [0.5], 4, f, 2000, seed=99)
        assert a == b
        c = mc_feynman_kac(model, [0.5], 4, f, 2000, seed=100)
        assert c.value != a.value

    def test_all_killed_flagged(self):
        model = small_pds(
            F=vector_field("const:50", 1), L=6.0, box=True, grid_n=60,
        )
        est = mc_feynman_kac(
            model, [0.0], 1, lambda y: np.ones(y.shape[0]), 200, seed=3
        )
        assert est.n_killed == est.n_traj
        assert est.value == 0.0 and est.std_error == 0.0

    def test_pds_mc_matches_grid_iterates(self, rng):
        model = small_pds()
        built = build_pds_kernel(model)
        space = built.operator.space
        i0 = int(np.argmin(np.abs(space.points[:, 0])))
        x0 = space.points[i0]
        f = lambda y: np.exp(model.a * np.linalg.norm(y, axis=1))
        for n in (1, 3, 7):
            kernel_n = np.linalg.matrix_power(built.operator.kernel, n)
            grid_val = (kernel_n @ built.psi1.values)[i0]
            est = mc_feynman_kac(model, x0, n, f, 60_000, seed=42 + n)
            assert abs(est.value - grid_val) <= 3.0 * est.std_error + 2e-3

    def test_diffusion_mass_decays(self):
        model = DiffusionModel(
            b=vector_field("affine:1,-1", 1),
            r=scalar_field("const:0"),
            L=12.0,
            grid_n=100,
            t0=1.0,
        )
        one = lambda y: np.ones(y.shape[0])
        est1 = mc_feynman_kac(model, [1.0], 1.0, one, 5000, seed=5, substep=0.01)
        est2 = mc_feynman_kac(model, [1.0], 2.0, one, 5000, seed=6, substep=0.01)
        assert 0.0 < est2.value < est1.value < 1.0
        assert est1.n_killed > 0

    # (value, std_error, n_killed) recorded with np.where selects freezing the
    # killed paths: any faster loop must reproduce them bit for bit
    PINNED = {
        "ou-criterion-9": (0.7756, 0.005900499231271507, 1122),
        "2d-exp-abs": (0.8860540254823339, 0.02218743346721262, 1647),
        "boxed-pds": (4.073496764883522, 0.05809329918968174, 419),
        # paths killed at x = L sit where r = e^6 for the rest of the
        # horizon: their unread log-weights would overflow exp
        "killed-at-the-far-face": (5.525401411870145e53, 5.506275522198662e53, 1503),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_stream_is_pinned(self, case):
        one = lambda y: np.ones(y.shape[0])
        if case == "ou-criterion-9":
            model = small_diffusion("affine:1,-1", "const:0", 12.0, grid_n=400)
            args = ([1.0], 1.0, one, 5000, 1234, 0.002)
        elif case == "2d-exp-abs":
            model = small_diffusion("affine:1,-1", "exp_abs:0.1", 5.0, dim=2, grid_n=20)
            f = lambda y: np.exp(-np.linalg.norm(y, axis=1))
            args = ([1.0, 1.5], 2.0, f, 3000, 77, 0.01)
        elif case == "boxed-pds":
            model = small_pds(
                F=vector_field("linear:0.5", 1), G=scalar_field("exp_abs:0.2"),
                L=2.5, box=True,
            )
            f = lambda y: np.exp(0.5 * np.abs(y[:, 0]))
            args = ([0.5], 6, f, 3000, 11, 0.01)
        else:
            model = small_diffusion("affine:0,-1", "exp_abs:0.5", 12.0)
            args = ([11.95], 4.0, one, 2000, 8, 0.01)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            est = mc_feynman_kac(model, *args)
        assert (est.value, est.std_error, est.n_killed) == self.PINNED[case]

    def test_diffusion_steps_do_not_fault_pages_in(self):
        # Fresh per-step arrays were trimmed from the heap and faulted back in on
        # every Euler step (dozens of faults a step) in a process that had not
        # imported scipy.special. The loop now writes into arrays made once.
        probe = (
            "import resource, numpy as np\n"
            "from rpos import DiffusionModel, mc_feynman_kac, scalar_field, vector_field\n"
            "m = DiffusionModel(b=vector_field('affine:1,-1', 1), r=scalar_field('const:0'),"
            " L=12.0, grid_n=400, t0=1.0)\n"
            "one = lambda y: np.ones(y.shape[0])\n"
            "for seed in (1, 2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    mc_feynman_kac(m, [1.0], 1.0, one, 20000, seed, substep=0.002)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rpos.models.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) < 500  # 500 steps; over 20 000 faults before

    @pytest.mark.parametrize("case", ["diffusion-1d", "diffusion-2d", "boxed-pds"])
    def test_killed_paths_stay_frozen(self, case):
        # every path leaves the box early; one that wandered on after its death
        # would overflow the drift's potential (or the map's penalty)
        one = lambda y: np.ones(y.shape[0])
        if case == "diffusion-1d":
            model = small_diffusion("linear:3", "exp_abs:0.1", 12.0)
            args = ([1.0], 4.0, one, 2000, 5, 0.01)
        elif case == "diffusion-2d":
            model = small_diffusion("affine:-2,4", "exp_abs:0.3", 5.0, dim=2, grid_n=20)
            args = ([1.0, 1.0], 4.0, one, 2000, 6, 0.01)
        else:
            model = small_pds(
                F=vector_field("linear:3", 1), G=scalar_field("exp_abs:1"),
                L=6.0, box=True,
            )
            args = ([0.5], 60, one, 2000, 7, 0.01)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            est = mc_feynman_kac(model, *args)
        assert est.n_killed == est.n_traj
        assert est.value == 0.0 and est.std_error == 0.0
