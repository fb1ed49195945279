"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import json
import time

import numpy as np
import pytest

from rpos import (
    DiffusionModel,
    Measure,
    PdsModel,
    ReciprocalInput,
    SubsetMask,
    WeightedFunction,
    build_diffusion_generator,
    build_v0,
    certify,
    check_condition_g,
    check_g1,
    check_g3,
    girsanov_check,
    h_transform,
    mc_feynman_kac,
    measure_eq1_eq2,
    measure_eq3,
    power_iterate,
    run_pds_analysis,
    scalar_field,
    skeleton_analysis,
    tilt_submarkov,
    vector_field,
)
from rpos.cli import main as cli_main

from conftest import make_operator, perron_oracle, random_kernel


def report(number, name):
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def two_state_op():
    return make_operator([[0.5, 0.2], [0.1, 0.6]])


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(5, 31))
        P = make_operator(random_kernel(rng, n))
        theta, eta, _, gap = perron_oracle(P.kernel)
        assert gap <= 0.95
        psi1 = WeightedFunction.ones(P.space)
        triple = power_iterate(P, psi1)
        assert abs(triple.theta0 - theta) <= 1e-10 * theta
        assert np.max(np.abs(triple.eta.values - eta)) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    report(1, "oracle equivalence on 200 random kernels")


def test_criterion_2_closed_form(two_state_op):
    psi1 = WeightedFunction.ones(two_state_op.space)
    t = power_iterate(two_state_op, psi1)
    assert abs(t.theta0 - 0.7) <= 1e-12
    assert np.max(np.abs(t.eta.values - 1.0)) <= 1e-12
    assert np.max(np.abs(t.nu_P.masses - [1.0 / 3.0, 2.0 / 3.0])) <= 1e-12
    report(2, "closed-form 2-state eigen triple")


def test_criterion_3_geometric_decay(two_state_op):
    space = two_state_op.space
    one = WeightedFunction.ones(space)
    mu = Measure.point_mass(space, 0)
    f = WeightedFunction(space, [1.0, 0.0])
    t = power_iterate(two_state_op, one)
    rep1, rep2 = measure_eq1_eq2(two_state_op, t, one, one, mu, f, 40)
    target = 4.0 / 7.0
    for rep in (rep1, rep2):
        assert rep.passed
        assert abs(rep.fitted_rate - target) <= 0.05 * target
        window = rep.index >= rep.burn_in
        assert np.all(rep.errors[window] <= rep.bound()[window] * (1 + 1e-9))
    report(3, "eq1/eq2 geometric decay at the spectral gap")


def test_criterion_4_condition_g_verifier():
    P = make_operator([[0.6, 0.4], [0.3, 0.7]])
    one = WeightedFunction.ones(P.space)
    rep = check_condition_g(P, SubsetMask.full(P.space), one, one)
    assert rep.overall
    assert rep.g1.n1 == 1
    assert rep.g1.c1 == pytest.approx(0.7, abs=1e-14)
    assert np.allclose(rep.g1.nu.masses, [3.0 / 7.0, 4.0 / 7.0], rtol=1e-13)
    assert rep.g2.theta2 == pytest.approx(1.0, abs=1e-14)

    identity = make_operator(np.eye(2))
    rep_id = check_condition_g(identity, SubsetMask.full(identity.space), one, one)
    assert not rep_id.g1.passed and not rep_id.overall

    cycle = make_operator([[0.0, 1.0], [1.0, 0.0]])
    K = SubsetMask.from_indices(cycle.space, [0])
    rep_cy = check_condition_g(cycle, K, one, one)
    assert not rep_cy.g4.passed and not rep_cy.overall
    report(4, "condition verifier on mixing/identity/2-cycle")


def test_criterion_5_transform_contracts():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(3, 26))
        P = make_operator(random_kernel(rng, n))
        psi1 = WeightedFunction(P.space, rng.uniform(0.2, 3.0, n))
        rec = tilt_submarkov(P, psi1)
        assert rec.max_row_mass <= 1.0 + 1e-12
        theta, eta_vals, _, _ = perron_oracle(P.kernel)
        h = h_transform(P, WeightedFunction(P.space, np.maximum(eta_vals, 0.0)), theta)
        assert np.max(np.abs(h.row_masses - 1.0)) <= 1e-10
    report(5, "tilt and h-transform row-mass contracts on 1000 kernels")


def _swap_corpus(rng, count):
    instances = []
    while len(instances) < count:
        n = int(rng.integers(5, 14))
        if len(instances) % 4 == 3:
            P = make_operator(np.eye(n))
            eta_vals = np.ones(n)
        else:
            P = make_operator(random_kernel(rng, n))
            _, eta_vals, _, _ = perron_oracle(P.kernel)
            eta_vals = np.maximum(eta_vals, 1e-9)
        psi1 = WeightedFunction(P.space, eta_vals * (1.0 + rng.uniform(0, 0.5, n)))
        psi2 = WeightedFunction(P.space, eta_vals)
        instances.append((P, psi1, psi2))
    return instances


def test_criterion_6_weight_interchangeability():
    rng = np.random.default_rng(6)
    from rpos import check_g2

    checked = 0
    for P, psi1, psi2 in _swap_corpus(rng, 50):
        K = SubsetMask.full(P.space)
        if not check_g2(P, K, psi1, psi2).passed:
            continue
        assert (
            check_g1(P, K, psi1).passed
            == check_g1(P, K, psi2).passed
        )
        assert (
            check_g3(P, K, psi1, 60).passed == check_g3(P, K, psi2, 60).passed
        )
        checked += 1
    assert checked >= 50
    report(6, f"psi1/psi2 interchangeability on {checked} instances")


def test_criterion_7_reciprocal_round_trip():
    rng = np.random.default_rng(7)
    done = 0
    for _ in range(30):
        n = int(rng.integers(5, 21))
        P = make_operator(random_kernel(rng, n))
        one = WeightedFunction.ones(P.space)
        if not check_condition_g(P, SubsetMask.full(P.space), one, one).overall:
            continue
        t = power_iterate(P, one)
        zeta = measure_eq3(P, t, one, 60).errors
        inp = ReciprocalInput(
            P=P, psi=one, eta=t.eta, theta0=t.theta0, zeta=zeta, nu_P=t.nu_P
        )
        cert = certify(inp)
        assert cert.passed, f"round-trip failed on a {n}-state instance"
        # the drift inequality holds pointwise on the certificate output
        H = h_transform(P, t.eta, t.theta0, psi1=one)
        v0 = build_v0(inp, cert.m, cert.lam, h_record=H)
        Rv = H.transformed.kernel @ v0.values
        onK = cert.K.member[H.support.indices].astype(float)
        assert np.all(Rv <= cert.rho * v0.values + cert.C_R * onK + 1e-12)
        done += 1

        if done <= 5:  # negative control: perturbed eta never passes
            bad_eta = WeightedFunction(
                P.space, t.eta.values * (1.0 + rng.uniform(0.01, 0.05, n))
            )
            resid = np.max(
                np.abs(P.kernel @ bad_eta.values - t.theta0 * bad_eta.values)
            ) / t.theta0
            assert resid > 1e-3
            bad = ReciprocalInput(
                P=P, psi=one, eta=bad_eta, theta0=t.theta0, zeta=zeta, nu_P=t.nu_P
            )
            assert not certify(bad).passed
    assert done >= 25
    report(7, f"reciprocal round-trip on {done} instances plus negative controls")


def test_criterion_8_pds_model():
    started = time.perf_counter()
    rng = np.random.default_rng(8)

    def model(n):
        return PdsModel(
            F=vector_field("linear:0.25", 1),
            G=scalar_field("const:1"),
            noise_sd=1.0,
            grid_n=n,
            L=10.0,
            p=2.0,
            a=2.0,
        )

    coarse = run_pds_analysis(model(200))
    fine = run_pds_analysis(model(400))
    assert coarse.g_report.overall and fine.g_report.overall
    change = abs(fine.triple.theta0 - coarse.triple.theta0) / fine.triple.theta0
    assert change < 0.01, f"theta0 grid drift {change:.2%}"

    # independent Monte Carlo oracle for one kernel row, 20 random cells
    op = fine.build.operator
    space = op.space
    i = int(np.argmin(np.abs(space.points[:, 0] - 1.5)))
    n_samp = 1_000_000
    mc_rng = np.random.Generator(np.random.Philox(key=80))
    y = 0.25 * space.points[i, 0] + mc_rng.standard_normal(n_samp)
    h = space.ref_weights[0]
    lo_edge = space.points[0, 0] - h / 2.0
    idx = np.floor((y - lo_edge) / h).astype(int)
    inside = (idx >= 0) & (idx < space.size)
    for j in rng.integers(0, space.size, 20):
        p_hat = float(np.mean(inside & (idx == j)))
        se = max(np.sqrt(p_hat * (1.0 - p_hat) / n_samp), 1e-8)
        assert abs(op.kernel[i, j] - p_hat) <= 3.0 * se + 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"PDS criterion took {elapsed:.1f}s"
    report(8, f"PDS model verification in {elapsed:.1f}s")


def test_criterion_9_diffusion_model():
    started = time.perf_counter()
    model = DiffusionModel(
        b=vector_field("affine:1,-1", 1),
        r=scalar_field("const:0"),
        L=12.0,
        grid_n=400,
        t0=1.0,
    )
    fam8 = build_diffusion_generator(model, n_substeps=8)
    sk8 = skeleton_analysis(fam8.step, fam8.n_substeps, model.t0, fam8.psi)
    fam16 = build_diffusion_generator(model, n_substeps=16)
    sk16 = skeleton_analysis(fam16.step, fam16.n_substeps, model.t0, fam16.psi)
    assert np.isfinite(sk8.c_bar) and sk8.c_under > 0.0
    assert sk8.passed
    rel = abs(sk8.lambda0 - sk16.lambda0) / abs(sk8.lambda0)
    assert rel <= 1e-3, f"lambda0 time-grid drift {rel:.2e}"

    # Euler-Maruyama slope of the log survival mass over t = 1..4
    one = lambda y: np.ones(y.shape[0])
    ts = np.array([1.0, 2.0, 3.0, 4.0])
    logm, var = [], []
    for k, T in enumerate(ts):
        est = mc_feynman_kac(model, [1.0], T, one, 100_000, seed=1234 + k,
                             substep=0.002)
        logm.append(np.log(est.value))
        var.append((est.std_error / est.value) ** 2)
    c = (ts - ts.mean()) / np.sum((ts - ts.mean()) ** 2)
    slope = float(c @ np.array(logm))
    se = float(np.sqrt(np.sum(c**2 * np.array(var))))
    assert abs(slope - sk8.lambda0) <= 1.96 * se, (
        f"slope {slope:.5f} vs lambda0 {sk8.lambda0:.5f} (se {se:.5f})"
    )

    gir_coarse = girsanov_check(fam8)
    fine_model = DiffusionModel(
        b=model.b, r=model.r, L=12.0, grid_n=800, t0=1.0
    )
    gir_fine = girsanov_check(build_diffusion_generator(fine_model))
    assert gir_fine.discrepancy < gir_coarse.discrepancy
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"diffusion criterion took {elapsed:.1f}s"
    report(9, f"diffusion model verification in {elapsed:.1f}s")


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "pds.cfg"
    cfg.write_text(
        "model.kind = pds\n"
        "model.F = linear:0.25\n"
        "model.G = const:1\n"
        "model.p = 2\n"
        "model.a = 2\n"
        "noise.sd = 1\n"
        "grid.n = 200\n"
        "grid.L = 10\n"
        "mc.n_traj = 20000\n"
        "mc.seed = 77\n"
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(
            ["model-run", "--config", str(cfg), "--out", str(out), "--quiet"]
        )
        assert code == 0
        outs.append(out)
    for fname in ("report.json", "kernel.json", "eq1.csv", "eq2.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    report(10, "byte-identical reruns of the CLI pipeline")
