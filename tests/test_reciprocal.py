import numpy as np
import pytest

import rpos.reciprocal
from rpos import (
    DriftSearchError,
    Measure,
    ReciprocalInput,
    WeightedFunction,
    ZetaConditionError,
    build_v0,
    certify,
    check_g3,
    extend_psi1,
    find_drift,
    h_transform,
    measure_eq3,
    power_iterate,
)
from rpos.cli import _plain

from conftest import killed_walk, make_operator, random_kernel


def reciprocal_input(P, psi=None, n_zeta=60, tol=1e-13):
    psi = psi or WeightedFunction.ones(P.space)
    t = power_iterate(P, psi, tol=tol)
    z = measure_eq3(P, t, psi, n_zeta)
    return ReciprocalInput(
        P=P, psi=psi, eta=t.eta, theta0=t.theta0, zeta=z.errors, nu_P=t.nu_P
    ), t


class TestBuildV0:
    def test_single_term_is_psi_over_eta(self, two_state):
        inp, t = reciprocal_input(two_state["P"])
        H = h_transform(inp.P, t.eta, t.theta0, psi1=inp.psi)
        v0 = build_v0(inp, 1, 0.8, h_record=H)
        expect = inp.psi.values / t.eta.values
        assert np.allclose(v0.values, expect, rtol=1e-12)

    def test_hand_example(self, two_state):
        space = two_state["space"]
        inp = ReciprocalInput(
            P=two_state["P"],
            psi=two_state["one"],
            eta=two_state["eta"],
            theta0=0.7,
            zeta=np.array([1.0, 0.5, 0.25]),
            nu_P=two_state["nu_P"],
        )
        H = h_transform(inp.P, inp.eta, inp.theta0, psi1=inp.psi)
        v0 = build_v0(inp, 2, 0.8, h_record=H)
        assert np.allclose(v0.values, [2.25, 2.25], atol=1e-12)

    def test_telescoping_residual(self, rng):
        P = make_operator(random_kernel(rng, 7))
        inp, t = reciprocal_input(P)
        m, lam = 5, 0.85
        H = h_transform(P, t.eta, t.theta0, psi1=inp.psi)
        v0 = build_v0(inp, m, lam, h_record=H)
        R = H.transformed.kernel
        u = inp.psi.values / t.eta.values
        lhs = R @ v0.values - lam * v0.values
        # telescoping: R V0 - lam V0 = lam^{1-m} R_m u - lam u
        Rm = np.linalg.matrix_power(R, m) @ u
        rhs = lam ** (1 - m) * Rm - lam * u
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_rejects_bad_lambda(self, two_state):
        inp, t = reciprocal_input(two_state["P"])
        H = h_transform(inp.P, t.eta, t.theta0, psi1=inp.psi)
        with pytest.raises(ValueError):
            build_v0(inp, 4, 1.0, h_record=H)


class TestFindDrift:
    def test_constant_v0_needs_full_space(self, two_state):
        inp, t = reciprocal_input(two_state["P"])
        H = h_transform(two_state["P"], t.eta, t.theta0, psi1=inp.psi)
        sub = H.transformed.space
        v0 = WeightedFunction(sub, [2.25, 2.25])
        level = WeightedFunction(sub, inp.psi.values / t.eta.values)
        nu_R = Measure(sub, t.eta.values * t.nu_P.density)
        res = find_drift(v0, H.transformed, 0.9, level, nu_R)
        assert res.K.member.all() and not res.passed
        assert res.C_R == pytest.approx(0.225, abs=1e-12)
        assert res.n2 == 0
        assert res.K.count == 2

    def test_matches_brute_force_on_birth_death(self, rng):
        P = killed_walk(50)
        inp, t = reciprocal_input(P, n_zeta=3)
        H = h_transform(P, t.eta, t.theta0, psi1=inp.psi)
        sub = H.transformed.space
        m, lam, rho = 16, 0.995, 0.997
        v0 = build_v0(inp, m, lam, h_record=H)
        u = WeightedFunction(sub, inp.psi.values / t.eta.values)
        nu_R = Measure(sub, t.eta.values * t.nu_P.density)
        res = find_drift(v0, H.transformed, rho, u, nu_R)
        # brute force over every level value, same admissibility rule
        Rv = H.transformed.kernel @ v0.values
        best = None
        for d in np.unique(u.values):
            member = u.values <= d
            if member.any() and np.all(Rv[~member] <= rho * v0.values[~member]):
                best = member
                break
        assert best is not None
        assert np.array_equal(res.K.member, best)
        assert not res.K.member.all()

    def test_rejects_bad_rho(self, two_state):
        inp, t = reciprocal_input(two_state["P"])
        H = h_transform(two_state["P"], t.eta, t.theta0)
        v0 = build_v0(inp, 2, 0.8, h_record=H)
        u = WeightedFunction(H.transformed.space, np.ones(2))
        nu_R = Measure(H.transformed.space, np.ones(2))
        with pytest.raises(ValueError):
            find_drift(v0, H.transformed, 1.0, u, nu_R)


class TestExtendPsi1:
    def test_single_term_is_psi(self, two_state):
        inp, _ = reciprocal_input(two_state["P"])
        psi1 = extend_psi1(inp, 1, 0.9)
        assert np.array_equal(psi1.values, inp.psi.values)

    def test_equals_eta_v0_on_full_support(self, rng):
        P = make_operator(random_kernel(rng, 8))
        inp, t = reciprocal_input(P)
        m, lam = 6, 0.9
        psi1 = extend_psi1(inp, m, lam)
        H = h_transform(P, t.eta, t.theta0, psi1=inp.psi)
        v0 = build_v0(inp, m, lam, h_record=H)
        assert np.allclose(psi1.values, t.eta.values * v0.values, rtol=1e-10)

    def test_off_support_contraction(self):
        # block-triangular operator with a transient state where eta = 0
        P = make_operator([[0.5, 0.3], [0.0, 0.25]])
        psi = WeightedFunction.ones(P.space)
        t = power_iterate(P, psi)
        assert t.theta0 == pytest.approx(0.5, abs=1e-12)
        assert t.eta.values[1] <= 1e-10  # transient state carries no limit mass
        z = measure_eq3(P, t, psi, 60)
        inp = ReciprocalInput(P=P, psi=psi, eta=t.eta, theta0=t.theta0,
                              zeta=z.errors, nu_P=t.nu_P)
        m, lam = 8, 0.9
        psi1 = extend_psi1(inp, m, lam)
        drift = (P.kernel @ psi1.values)[1]
        assert drift <= lam * t.theta0 * psi1.values[1] * (1 + 1e-12)
        assert np.all(psi1.values >= psi.values)

    def test_zeta_condition_enforced(self, two_state):
        inp = ReciprocalInput(
            P=two_state["P"],
            psi=two_state["one"],
            eta=two_state["eta"],
            theta0=0.7,
            zeta=np.full(40, 0.999),  # profile that never decays
            nu_P=two_state["nu_P"],
        )
        with pytest.raises(ZetaConditionError):
            extend_psi1(inp, 8, 0.9)
        with pytest.raises(ZetaConditionError):
            extend_psi1(inp, 100, 0.9)  # beyond the measured profile


class TestCertify:
    def test_two_state_passes(self, two_state):
        inp, t = reciprocal_input(two_state["P"])
        cert = certify(inp)
        assert cert.passed and cert.stage == "ok"
        assert cert.g_report.overall
        assert cert.m == 8 and cert.lam == pytest.approx(0.9)
        # psi <= psi1 pointwise and the Lyapunov surplus is the 2-state value
        assert np.all(cert.psi1.values >= inp.psi.values)
        assert cert.nu.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_lyapunov_inequality_pointwise(self, rng):
        P = make_operator(random_kernel(rng, 9))
        inp, t = reciprocal_input(P)
        cert = certify(inp)
        assert cert.passed
        H = h_transform(P, t.eta, t.theta0, psi1=inp.psi)
        v0 = build_v0(inp, cert.m, cert.lam, h_record=H)
        Rv = H.transformed.kernel @ v0.values
        onK = cert.K.member[H.support.indices]
        bound = cert.rho * v0.values + cert.C_R * onK.astype(float)
        assert np.all(Rv <= bound * (1 + 1e-12))

    def test_harnack_trivial_for_eta(self, rng):
        P = make_operator(random_kernel(rng, 8))
        inp, t = reciprocal_input(P)
        cert = certify(inp)
        res = check_g3(P, cert.K, t.eta, 60)
        assert res.c3 <= 1.0 + 1e-9

    def test_killed_random_walk_certifies(self):
        # the profile's length is the only horizon: zeta_512 is measured and
        # (G3)/(G4) run to n = 1000
        inp, t = reciprocal_input(killed_walk(50), n_zeta=1000)
        cert = certify(inp)
        assert cert.passed
        assert cert.g_report.g2.theta1 < cert.g_report.g2.theta2
        assert cert.m > 8  # back-off was exercised

    def test_back_off_through_failing_certificates(self):
        # at H = 600 the only m with zeta_m^(1/m) <= lambda is 512, and its
        # certificate fails (G3), so the schedule ends and returns that one
        inp, _ = reciprocal_input(killed_walk(50), n_zeta=600)
        cert = certify(inp)
        assert not cert.passed and cert.stage == "condition-g"
        assert cert.m == 512
        assert cert.lam == pytest.approx(1 - 0.1 / 2**6)

    def test_fabricated_eigenfunction_never_passes(self, rng, two_state):
        inp, t = reciprocal_input(two_state["P"])
        for scale in (1.01, 1.1, 2.0):
            eta_bad = WeightedFunction(
                two_state["space"], t.eta.values * np.array([1.0, scale])
            )
            bad = ReciprocalInput(
                P=two_state["P"],
                psi=two_state["one"],
                eta=eta_bad,
                theta0=t.theta0,
                zeta=inp.zeta,
                nu_P=t.nu_P,
            )
            cert = certify(bad)
            assert not cert.passed
            assert cert.stage == "eigenfunction"
            assert cert.eigen_residual > 1e-3

    def test_wrong_theta0_rejected(self, two_state):
        inp, t = reciprocal_input(two_state["P"])
        bad = ReciprocalInput(
            P=two_state["P"],
            psi=two_state["one"],
            eta=t.eta,
            theta0=0.9,
            zeta=inp.zeta,
            nu_P=t.nu_P,
        )
        cert = certify(bad)
        assert not cert.passed and cert.stage == "eigenfunction"

    def test_nu_without_mass_on_the_support_fails_at_spectral(self):
        # diag(0.7, 0.4): eta = (1, 0) is supported on state 0, nu on state 1
        P = make_operator(np.diag([0.7, 0.4]))
        inp = ReciprocalInput(
            P=P,
            psi=WeightedFunction.ones(P.space),
            eta=WeightedFunction(P.space, [1.0, 0.0]),
            theta0=0.7,
            zeta=np.array([1.0, 0.5, 0.25]),
            nu_P=Measure(P.space, [0.0, 1.0]),
        )
        cert = certify(inp)
        assert not cert.passed and cert.stage == "spectral"
        assert cert.diagnostics == "nu_P gives no mass to the support"

    def test_drift_search_failure_backs_off_to_find_drift(self, two_state, monkeypatch):
        # The full support is always an admissible level once nu_R has mass,
        # so a valid input never gets here: stand in a failing search.
        tried = []

        def failing_search(v0, R, rho, level, nu_R):
            tried.append(rho)
            raise DriftSearchError("no sublevel set is reachable")

        monkeypatch.setattr(rpos.reciprocal, "find_drift", failing_search)
        inp, _ = reciprocal_input(two_state["P"])
        cert = certify(inp)
        assert not cert.passed and cert.stage == "find_drift"
        assert cert.diagnostics == "no sublevel set is reachable"
        assert len(tried) == 3 and cert.m == 32  # m = 8, 16, 32 < len(zeta)
        assert cert.rho == tried[-1]

    def test_undecaying_zeta_fails_at_the_zeta_stage(self, two_state):
        inp = ReciprocalInput(
            P=two_state["P"],
            psi=two_state["one"],
            eta=two_state["eta"],
            theta0=0.7,
            zeta=np.full(20, 2.0),
            nu_P=two_state["nu_P"],
        )
        cert = certify(inp)
        assert not cert.passed and cert.stage == "zeta"
        assert cert.diagnostics == (
            "zeta_m^(1/m) <= lambda unattainable for any m <= 19 (profile length 20)"
        )

    def test_certificate_serializes(self, two_state):
        inp, _ = reciprocal_input(two_state["P"])
        cert = certify(inp)
        d = _plain(cert)
        assert d["overall"] is True
        assert d["g_report"]["overall"] is True
        assert d["lambda"] == cert.lam
        assert len(d["zeta"]) == len(inp.zeta)
