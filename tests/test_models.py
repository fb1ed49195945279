import numpy as np
import pytest
import scipy.linalg

from rpos import (
    DiffusionModel,
    GridCoverageError,
    PdsModel,
    StabilityError,
    WeightedFunction,
    apply,
    build_diffusion_generator,
    build_pds_kernel,
    check_hypotheses,
    girsanov_check,
    iterate,
    mc_feynman_kac,
    run_pds_analysis,
    scalar_field,
    skeleton_analysis,
    tilt_submarkov,
    uniformized_exponential,
    vector_field,
)
from rpos.models import ConfigError


def small_pds(**kw):
    args = dict(
        F=vector_field("linear:0.25", 1),
        G=scalar_field("const:1"),
        noise_sd=1.0,
        grid_n=160,
        grid_lo=-8.0,
        grid_hi=8.0,
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

    def test_bad_selectors(self):
        with pytest.raises(ConfigError):
            vector_field("spline:1", 1)
        with pytest.raises(ConfigError):
            scalar_field("const:a")
        with pytest.raises(ConfigError):
            vector_field("affine:1", 1)  # needs two parameters


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
        model = small_pds(grid_lo=-1.0, grid_hi=1.0)
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


class TestPdsPipeline:
    def test_condition_passes_at_small_scale(self):
        analysis = run_pds_analysis(small_pds())
        assert analysis.g_report.overall
        assert analysis.g_report.g4.passed
        assert all(v == 1 for v in analysis.g_report.g4.n4.values())
        assert analysis.g_report.g1.n1 == 1
        assert 0.9 <= analysis.triple.theta0 <= 1.0 + 1e-9

    def test_2d_grid_supported(self):
        model = PdsModel(
            F=vector_field("linear:0.2", 2),
            G=scalar_field("const:1"),
            noise_sd=1.0,
            grid_n=24,
            grid_lo=-6.0,
            grid_hi=6.0,
            p=2.0,
            a=2.0,
            dim=2,
        )
        built = build_pds_kernel(model)
        assert built.operator.space.size == 24 * 24
        mass = apply(built.operator, WeightedFunction.ones(built.operator.space))
        assert np.all(mass.values <= 1.0 + 1e-9)
        assert np.max(mass.values) >= 0.99


class TestHypotheses:
    def test_pds_contraction_diverges(self):
        rep = check_hypotheses(small_pds())
        assert rep.kind == "pds" and rep.diverging
        assert not rep.warnings
        assert rep.details["sup_inv_G"] == 1.0

    def test_expanding_map_flagged(self):
        rep = check_hypotheses(small_pds(F=vector_field("linear:2", 1), p=2.0))
        assert not rep.diverging
        assert rep.warnings

    def test_diffusion_drift_decays(self):
        model = DiffusionModel(
            b=vector_field("affine:1,-1", 1),
            r=scalar_field("const:0"),
            L=10.0,
            grid_n=100,
            t0=0.5,
        )
        rep = check_hypotheses(model)
        assert rep.kind == "diffusion" and rep.diverging
        assert rep.details["a"] == pytest.approx(0.5 + 1.0 - model.h, abs=1e-12)


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

    def test_zero_time_is_identity(self, rng):
        A = -np.eye(4)
        assert np.array_equal(uniformized_exponential(A, 0.0), np.eye(4))


class TestDiffusion:
    def test_heat_kernel_absorbs_and_fills(self):
        base = dict(b=vector_field("zero", 1), r=scalar_field("const:0"), t0=0.5)
        fam = build_diffusion_generator(DiffusionModel(L=6.0, grid_n=120, **base))
        ones = WeightedFunction.ones(fam.space)
        mass = apply(fam.at_t0, ones)
        assert np.all(mass.values < 1.0)  # strict absorption
        fam_wide = build_diffusion_generator(DiffusionModel(L=24.0, grid_n=480, **base))
        mid = fam_wide.space.size // 2
        mass_wide = apply(fam_wide.at_t0, WeightedFunction.ones(fam_wide.space))
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
        rep = skeleton_analysis(fam.family, fam.psi)
        assert rep.consistency_residual <= 1e-12
        assert rep.passed
        assert rep.lambda0 < 0.0  # killing at the origin boundary

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
        tilt = tilt_submarkov(fam.at_t0, fam.psi, c=np.exp(rep.a * model.t0))
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
        assert np.max(np.abs(fam.at_t0.kernel - oracle)) <= 1e-10
        assert np.all(fam.at_t0.kernel.sum(axis=1) < 1.0)  # killed at all faces

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
            F=vector_field("const:50", 1), domain_lo=-6.0, domain_hi=6.0,
            grid_lo=-6.0, grid_hi=6.0, grid_n=60,
        )
        est = mc_feynman_kac(
            model, [0.0], 1, lambda y: np.ones(y.shape[0]), 200, seed=3
        )
        assert est.all_killed
        assert est.value == 0.0 and est.std_error == 0.0

    def test_pds_mc_matches_grid_iterates(self, rng):
        model = small_pds()
        built = build_pds_kernel(model)
        space = built.operator.space
        i0 = int(np.argmin(np.abs(space.points[:, 0])))
        x0 = space.points[i0]
        f = lambda y: np.exp(model.a * np.linalg.norm(y, axis=1))
        for n in (1, 3, 7):
            grid_val = iterate(built.operator, n, built.psi1).values[i0]
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
