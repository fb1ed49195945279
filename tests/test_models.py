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
from rpos.models import ConfigError, _halved_exponential


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

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_nonfinite_time_rejected(self, t):
        # inf halves forever and nan never ends the Poisson series.
        with pytest.raises(ValueError, match="finite"):
            uniformized_exponential(-np.eye(4) + 0.5 * np.eye(4, k=1), t)


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
        mass = apply(fam.at_t0, ones)
        assert np.all(mass.values < 1.0)  # strict absorption
        fam_wide = build_diffusion_generator(DiffusionModel(L=24.0, grid_n=480, **base))
        mid = fam_wide.step.space.size // 2
        mass_wide = apply(fam_wide.at_t0, WeightedFunction.ones(fam_wide.step.space))
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
        rep = skeleton_analysis(fam.step, fam.at_t0, fam.n_substeps, fam.psi)
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
        assert fam.step.step_label == np.linspace(0.0, 1.0, n + 1)[1]
        assert fam.at_t0.step_label == 1.0
        oracle = scipy.linalg.expm(model.t0 * fam.generator)
        assert np.max(np.abs(fam.at_t0.kernel - oracle)) <= 1e-10
        chain = fam.step.kernel
        for _ in range(n - 1):
            chain = chain @ fam.step.kernel
        peak = np.max(np.abs(chain))
        assert np.max(np.abs(fam.at_t0.kernel - chain)) <= 1e-12 * peak

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
            skeleton_analysis(fam.step, fam.at_t0, fam.n_substeps, fam.psi)
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

    @pytest.mark.parametrize(
        "dim, grid_n, L, t0, halvings",
        [(1, 10, 3.0, 0.5, 0), (1, 400, 12.0, 1.0, 7), (2, 28, 5.0, 1.0, 3)],
    )
    def test_girsanov_matches_the_dense_exponential(self, dim, grid_n, L, t0, halvings):
        # the halved step applied 2^h times to the ones vector stands for the
        # dense exp(t0 A_bar), which squares that step h times
        model = DiffusionModel(
            b=vector_field("affine:1,-1", dim),
            r=scalar_field("const:0"),
            L=L,
            grid_n=grid_n,
            t0=t0,
            dim=dim,
        )
        fam = build_diffusion_generator(model)
        assert _halved_exponential(fam.shifted_generator, t0)[1] == halvings
        rep = girsanov_check(fam)
        tilt = tilt_submarkov(fam.at_t0, fam.psi, c=np.exp(fam.a * t0))
        ones = np.ones(fam.step.space.size)
        dense = uniformized_exponential(fam.shifted_generator, t0)
        ref = np.max(np.abs(tilt.tilted.kernel @ ones - dense @ ones))
        assert abs(rep.discrepancy - ref) <= 1e-9 * ref


def skeleton_lambda0(b, L, grid_n, dim=1):
    fam = build_diffusion_generator(small_diffusion(b, "const:0", L, dim=dim, grid_n=grid_n))
    return skeleton_analysis(fam.step, fam.at_t0, fam.n_substeps, fam.psi).lambda0


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
        # dim of them. The uniformized exponential is off by up to 5e-10.
        h = L / (grid_n + 1)
        up, down = 0.5 / h**2 + v / (2 * h), 0.5 / h**2 - v / (2 * h)
        exact = dim * (-1 / h**2 + 2 * np.sqrt(up * down) * np.cos(np.pi / (grid_n + 1)))
        assert skeleton_lambda0(f"const:{v}", L, grid_n, dim) == pytest.approx(exact, rel=1e-9)

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
