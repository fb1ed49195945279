import ast
import builtins
import importlib
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rpos
from rpos.cli import (
    _KEYS as DECLARED,
    _BLOCK_ROWS,
    UsageError,
    _encode_floats,
    _operator_json,
    _write_all,
    diffusion_from_config,
    load_operator_bundle,
    main,
    parse_config,
    read_config,
)
from rpos.models import build_diffusion_generator
from rpos.spectral import skeleton_analysis

from conftest import killed_walk, make_operator


TWO_STATE = {
    "points": [[0.0], [1.0]],
    "ref_weights": [1.0, 1.0],
    "kernel": [[0.5, 0.2], [0.1, 0.6]],
}


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_operator(tmp_path, data, name="op.json"):
    """``data`` as operator JSON, or a str as the file's text."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


def run(args):
    return main([str(a) for a in args])


def operator_layout(op):
    """The operator file's fields, as json reads them back."""
    return {
        "points": op.space.points.tolist(),
        "ref_weights": op.space.ref_weights.tolist(),
        "kernel": op.kernel.tolist(),
    }


class TestSpectralCommand:
    def test_two_state_report(self, tmp_path, capsys):
        op = write_operator(tmp_path, TWO_STATE)
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        out = tmp_path / "out"
        code = run(["spectral", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "rpos/1"
        assert abs(report["triple"]["theta0"] - 0.7) <= 1e-12
        assert (out / "eq1.csv").read_text().startswith("n,error,bound\n")
        assert (out / "run-metadata.json").exists()
        assert "theta0" in capsys.readouterr().out

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        op = write_operator(tmp_path, TWO_STATE)
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        run(["spectral", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        assert capsys.readouterr().out == ""

    def test_nonconvergence_is_analysis_failure(self, tmp_path, capsys):
        cycle = dict(TWO_STATE, kernel=[[0.0, 1.0], [1.0, 0.0]], psi1=[1.0, 2.0])
        op = write_operator(tmp_path, cycle)
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        code = run(["spectral", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1
        assert "analysis failed" in capsys.readouterr().err


    def test_probe_outside_the_dominant_class_is_a_negative_answer(self, tmp_path):
        # eq1 starts at state 0, whose only edge is a 1e-3 self-loop next to
        # a dense 3-state block: mu(eta) = 0, theta0^-n mu P_n underflows and
        # the eq1 ratio never reaches nu_P(f). The walk must keep going.
        kernel = np.zeros((4, 4))
        kernel[0, 0] = 1e-3
        kernel[1:, 1:] = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        four = dict(
            TWO_STATE,
            points=[[0.0], [1.0], [2.0], [3.0]],
            ref_weights=[1.0] * 4,
            kernel=kernel.tolist(),
        )
        op = write_operator(tmp_path, four)
        cfg = write_config(tmp_path, f"operator = {op.name}\nn_max = 200\n")
        out = tmp_path / "out"
        code = run(["spectral", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eq1"]["pass"] is False
        eq2 = np.loadtxt(out / "eq2.csv", delimiter=",", skiprows=1)
        assert eq2.shape == (201, 3) and np.all(np.isfinite(eq2))
        assert eq2[-1, 1] <= 1e-12  # mu(eta) = 0: the eq2 profile decays to 0

class TestCheckGCommand:
    def test_identity_fails_via_g1(self, tmp_path):
        identity = dict(TWO_STATE, kernel=[[1.0, 0.0], [0.0, 1.0]])
        op = write_operator(tmp_path, identity)
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        out = tmp_path / "out"
        code = run(["check-g", "--config", cfg, "--out", out])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["g_report"]["g1"]["pass"] is False
        assert report["g_report"]["overall"] is False

    def test_mixing_kernel_passes(self, tmp_path):
        op = write_operator(
            tmp_path, dict(TWO_STATE, kernel=[[0.6, 0.4], [0.3, 0.7]])
        )
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        out = tmp_path / "out"
        code = run(["check-g", "--config", cfg, "--out", out])
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["g_report"]
        assert rep["g1"]["n1"] == 1
        assert rep["g1"]["c1"] == pytest.approx(0.7, abs=1e-14)
        assert rep["g2"]["theta2"] == pytest.approx(1.0, abs=1e-14)

    def test_k_from_config_indices(self, tmp_path):
        cycle = dict(TWO_STATE, kernel=[[0.0, 1.0], [1.0, 0.0]])
        op = write_operator(tmp_path, cycle)
        cfg = write_config(tmp_path, f"operator = {op.name}\nk.indices = 0\n")
        out = tmp_path / "out"
        code = run(["check-g", "--config", cfg, "--out", out])
        assert code == 1
        rep = json.loads((out / "report.json").read_text())["g_report"]
        assert rep["g4"]["pass"] is False

    def test_k_from_the_operator_file(self, tmp_path):
        op = write_operator(tmp_path, dict(THREE, K=[0]))
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        out = tmp_path / "out"
        assert run(["check-g", "--config", cfg, "--out", out, "--quiet"]) in (0, 1)
        rep = json.loads((out / "report.json").read_text())["g_report"]
        assert list(rep["g4"]["n4"]) == ["0"]

    def test_heavy_cycle_is_a_g1_failure_with_a_report(self, tmp_path, capsys):
        # The 20-cycle with weights 1e10 ends its (G1) search at n1 = N, where
        # P_0's zero pattern repeats, as a FAIL; an unscaled orbit would
        # overflow at step 30 and write nothing.
        n = 20
        cycle = {
            "points": [[float(i)] for i in range(n)],
            "ref_weights": [1.0] * n,
            "kernel": (1e10 * np.roll(np.eye(n), 1, axis=1)).tolist(),
        }
        op = write_operator(tmp_path, cycle)
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        out = tmp_path / "out"
        assert run(["check-g", "--config", cfg, "--out", out]) == 1
        rep = json.loads((out / "report.json").read_text())["g_report"]
        assert rep["g1"]["pass"] is False and rep["g1"]["n1"] == n
        stdout = capsys.readouterr().out
        assert "g1  FAIL  c1=0 n1=20" in stdout and "overall  FAIL" in stdout

    def test_n1_is_no_longer_a_key(self, tmp_path, capsys):
        # (G1) finds its own horizon; a config that still sets one is refused
        op = write_operator(tmp_path, THREE)
        cfg = write_config(tmp_path, f"operator = {op.name}\nn1 = 1\n")
        code = run(["check-g", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("rpos: error: unknown config key 'n1'")
        assert not (tmp_path / "o").exists()


class TestReciprocalCommand:
    def test_two_state_certifies(self, tmp_path):
        op = write_operator(tmp_path, TWO_STATE)
        cfg = write_config(tmp_path, f"operator = {op.name}\nn_max = 80\n")
        out = tmp_path / "out"
        code = run(["reciprocal", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["overall"] is True
        assert report["certificate"]["stage"] == "ok"
        assert (out / "eq3.csv").exists()

    def test_short_profile_is_a_negative_answer(self, tmp_path):
        # zeta_5 is the last measured entry; the back-off starts at m = 8.
        op = write_operator(tmp_path, TWO_STATE)
        cfg = write_config(tmp_path, f"operator = {op.name}\nn_max = 5\n")
        out = tmp_path / "out"
        code = run(["reciprocal", "--config", cfg, "--out", out])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["stage"] == "zeta"
        assert len((out / "eq3.csv").read_text().splitlines()) == 7

    @pytest.mark.parametrize("n_max, code, stage", [(1000, 0, "ok"), (160, 1, "zeta")])
    def test_slowly_mixing_walk_certifies_on_a_long_profile(self, tmp_path, n_max, code, stage):
        # On the 50-site killed walk zeta_m^(1/m) <= lambda first holds at
        # m = 512, so only a profile that reaches zeta_512 can certify it.
        op = write_operator(tmp_path, operator_layout(killed_walk(50)))
        cfg = write_config(tmp_path, f"operator = {op.name}\nn_max = {n_max}\n")
        out = tmp_path / "out"
        assert run(["reciprocal", "--config", cfg, "--out", out, "--quiet"]) == code
        report = json.loads((out / "report.json").read_text())
        assert report["certificate"]["stage"] == stage

    def test_overflowing_operator_is_analysis_failure(self, tmp_path, capsys):
        huge = {
            "points": [[float(i)] for i in range(4)],
            "ref_weights": [1.0] * 4,
            "kernel": [[1e307] * 4 for _ in range(4)],
        }
        op = write_operator(tmp_path, huge)
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        out = tmp_path / "out"
        code = run(["reciprocal", "--config", cfg, "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("rpos: analysis failed")
        # a failed run writes no file, so none holds NaN or Infinity
        assert not out.exists()


class TestModelRunCommand:
    CFG = (
        "model.kind = pds\n"
        "model.F = linear:0.25\n"
        "model.G = const:1\n"
        "model.p = 2\n"
        "model.a = 2\n"
        "noise.sd = 1\n"
        "grid.n = 160\n"
        "grid.L = 8\n"
        "mc.n_traj = 2000\n"
        "mc.seed = 11\n"
    )

    def test_pipeline_emits_everything(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        code = run(["model-run", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["g_report"]["overall"] is True
        assert abs(report["mc_probe"]["z_score"]) <= 4.0
        from rpos import build_pds_kernel
        from rpos.cli import parse_config, pds_from_config, read_config

        values = read_config("model-run", parse_config(cfg), cfg)
        op = build_pds_kernel(pds_from_config(values)).operator
        expected = json.dumps(operator_layout(op), indent=2) + "\n"
        assert (out / "kernel.json").read_bytes() == expected.encode()
        assert (out / "eq1.csv").exists() and (out / "eq2.csv").exists()

    def test_kernel_json_reads_back(self, tmp_path):
        # The operator file's one writer and one reader agree, and the
        # operator commands read what model-run writes.
        from rpos import build_pds_kernel
        from rpos.cli import parse_config, pds_from_config, read_config

        cfg = write_config(tmp_path, MAP_CFG)
        out = tmp_path / "out"
        assert run(["model-run", "--config", cfg, "--out", out, "--quiet"]) in (0, 1)
        values = read_config("model-run", parse_config(cfg), cfg)
        op = build_pds_kernel(pds_from_config(values)).operator
        back = load_operator_bundle(out / "kernel.json")["operator"]
        assert np.array_equal(back.space.points, op.space.points)
        assert np.array_equal(back.space.ref_weights, op.space.ref_weights)
        assert np.array_equal(back.kernel, op.kernel)
        spectral = write_config(tmp_path, f"operator = {out / 'kernel.json'}\n", "spectral.cfg")
        assert run(["spectral", "--config", spectral, "--out", tmp_path / "s", "--quiet"]) == 0

    def test_domain_box_reaches_the_model(self, tmp_path):
        from rpos.cli import parse_config, pds_from_config, read_config

        cfg = write_config(tmp_path, self.CFG + "model.domain = box\n")
        model = pds_from_config(read_config("model-run", parse_config(cfg), cfg))
        assert model.box is True and model.L == 8.0

    def test_empty_seed_ball_is_analysis_failure(self, tmp_path, capsys):
        cfg = self.CFG.replace("grid.n = 160", "grid.n = 4").replace(
            "grid.L = 8", "grid.L = 10"
        )
        cfg_path = write_config(tmp_path, cfg)
        code = run(["model-run", "--config", cfg_path, "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == (
            "rpos: analysis failed: the unit-ball seed contains no grid point\n"
        )

    def test_diffusion_kind_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model.kind = diffusion\n")
        code = run(["model-run", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert "skeleton" in capsys.readouterr().err


class TestSkeletonCommand:
    CFG = (
        "model.kind = diffusion\n"
        "model.b = affine:1,-1\n"
        "model.r = const:0\n"
        "grid.n = 120\n"
        "grid.L = 10\n"
        "skeleton.t0 = 1.0\n"
        "skeleton.substeps = 8\n"
    )

    def test_analysis_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "out"
        code = run(["skeleton", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["skeleton"]["pass"] is True
        assert report["skeleton"]["lambda0"] < 0.0
        assert report["girsanov"]["discrepancy"] < 0.05
        assert (out / "eq1cont.csv").exists() and (out / "eq2cont.csv").exists()
        # the relative Girsanov gap is printed next to the absolute one
        gir = report["girsanov"]
        assert (
            f"girsanov = {gir['discrepancy']:.3e}  relative = {gir['relative']:.3e}"
            in capsys.readouterr().out
        )

    def test_small_pairing_is_not_defective(self, tmp_path):
        # nu_P(eta) of the unnormalized pair is about 1e-24, but it has
        # settled: the stencil generator has simple real eigenvalues
        text = "model.kind = diffusion\nmodel.b = affine:20,-1\ngrid.n = 252\ngrid.L = 12\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(["skeleton", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        model = diffusion_from_config(read_config("skeleton", parse_config(cfg), cfg))
        generator = build_diffusion_generator(model).generator
        top = float(np.max(np.linalg.eigvals(generator).real))
        assert report["skeleton"]["lambda0"] == pytest.approx(top, rel=1e-10)

    def test_girsanov_normalizer_out_of_range_is_analysis_failure(self, tmp_path, capsys):
        # The skeleton solves, but exp(a t0) at a t0 = 0.5488 * 2000 is past
        # the float range: one error line, exit 1 and no output directory.
        text = (
            "model.kind = diffusion\nmodel.b = zero\nmodel.r = const:0.0488\n"
            "grid.n = 30\ngrid.L = 10\nskeleton.t0 = 2000\n"
        )
        cfg = write_config(tmp_path, text)
        model = diffusion_from_config(read_config("skeleton", parse_config(cfg), cfg))
        fam = build_diffusion_generator(model)
        assert skeleton_analysis(fam.step, fam.n_substeps, model.t0, fam.psi).passed
        out = tmp_path / "out"
        assert run(["skeleton", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rpos: analysis failed: ") and err.count("\n") == 1
        assert "a t0 = 1097.6" in err
        assert not out.exists()

    def test_tilt_weight_overflow_is_analysis_failure(self, tmp_path, capsys, monkeypatch):
        # The tilt psi = exp(x) passes the float range from x = 709.8 on, and
        # the box reaches 789; 800 nodes keep h <= 1 for the drift b + 1. One
        # error line naming the largest x, before either exponential is taken
        # and with no overflow warning (an error under this suite's filter).
        text = (
            "model.kind = diffusion\nmodel.b = zero\nmodel.r = const:0\n"
            "grid.n = 800\ngrid.L = 790\nskeleton.t0 = 1\n"
        )
        cfg = write_config(tmp_path, text)

        def no_exponential(A, t):
            raise AssertionError("exponential taken before the tilt was checked")

        monkeypatch.setattr("rpos.models.uniformized_exponential", no_exponential)
        out = tmp_path / "out"
        assert run(["skeleton", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == (
            "rpos: analysis failed: Girsanov tilt exp(sum x) overflows at sum x = 789.014\n"
        )
        assert not out.exists()

    def test_constant_potential_keeps_the_stencil(self, tmp_path):
        # r = 200 > 1/h^2 = 121 makes every diagonal entry 79; the shift that
        # takes it to 0 must leave the off-diagonals in the exponential.
        text = (
            "model.kind = diffusion\nmodel.b = zero\nmodel.r = const:200\n"
            "grid.n = 10\ngrid.L = 1\nskeleton.t0 = 1\n"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(["skeleton", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        model = diffusion_from_config(read_config("skeleton", parse_config(cfg), cfg))
        generator = build_diffusion_generator(model).generator
        top = float(np.max(np.linalg.eigvals(generator).real))
        assert top == pytest.approx(195.0986, abs=1e-4)
        assert report["skeleton"]["lambda0"] == pytest.approx(top, rel=1e-10)

    def test_exponential_overflow_is_analysis_failure(self, tmp_path, capsys):
        # P_delta at delta = 10 / 8 grows like exp(1000 delta): past the float
        # range, so one error line naming delta, exit 1 and no output directory.
        text = (
            "model.kind = diffusion\nmodel.b = zero\nmodel.r = const:1000\n"
            "grid.n = 10\ngrid.L = 1\nskeleton.t0 = 10\n"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(["skeleton", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rpos: analysis failed: exp(t A) overflows at t = 1.25")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_girsanov_direct_side_underflow_is_analysis_failure(self, tmp_path, capsys):
        # The skeleton solves (lambda0 t0 = -1.233 * 450), but the direct side
        # decays like exp(-(a - lambda0) t0) = exp(-780): it is 0 in floats and
        # no gap relative to it exists.
        text = (
            "model.kind = diffusion\nmodel.b = zero\nmodel.r = const:0\n"
            "grid.n = 30\ngrid.L = 2\nskeleton.t0 = 450\n"
        )
        cfg = write_config(tmp_path, text)
        model = diffusion_from_config(read_config("skeleton", parse_config(cfg), cfg))
        fam = build_diffusion_generator(model)
        assert skeleton_analysis(fam.step, fam.n_substeps, model.t0, fam.psi).passed
        out = tmp_path / "out"
        assert run(["skeleton", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "rpos: analysis failed: Girsanov direct side underflows to 0 at t0 = 450\n"
        assert not out.exists()


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["spectral", "--config", tmp_path / "nope.cfg", "--out", tmp_path])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_operator_names_field(self, tmp_path, capsys):
        op = write_operator(tmp_path, {"points": [[0.0]], "ref_weights": [1.0]})
        cfg = write_config(tmp_path, f"operator = {op.name}\n")
        code = run(["spectral", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert "kernel" in capsys.readouterr().err

    def test_step_label_field_is_no_error(self, tmp_path):
        # older operator files carry "step_label": 1; like any unknown field
        # it is left unread, whatever its value
        plain = load_operator_bundle(write_operator(tmp_path, TWO_STATE))["operator"]
        for label in (1, 0.25, "x"):
            data = dict(TWO_STATE, step_label=label)
            op = load_operator_bundle(write_operator(tmp_path, data))["operator"]
            assert np.array_equal(op.kernel, plain.kernel)
            assert vars(op).keys() == {"space", "kernel"}

    def test_missing_operator_field_is_named(self, tmp_path):
        for key in ("points", "ref_weights", "kernel"):
            data = {k: v for k, v in TWO_STATE.items() if k != key}
            with pytest.raises(UsageError, match=f"missing field '{key}'"):
                load_operator_bundle(write_operator(tmp_path, data))

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model.kind\n")
        code = run(["model-run", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "model.kind = pds\n")
        code = run(["model-run", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        assert "missing the required key" in capsys.readouterr().err


class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TestModelRunCommand.CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["model-run", "--config", cfg, "--out", out1, "--quiet"]) == 0
        assert run(["model-run", "--config", cfg, "--out", out2, "--quiet"]) == 0
        for name in ("report.json", "kernel.json", "eq1.csv", "eq2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


THREE = dict(
    TWO_STATE,
    points=[[0.0], [1.0], [2.0]],
    ref_weights=[1.0, 1.0, 1.0],
    kernel=[[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.2, 0.2, 0.4]],
)
MAP_CFG = (
    "model.kind = pds\nmodel.F = linear:0.25\nmodel.p = 2\nmodel.a = 2\n"
    "grid.n = 40\ngrid.L = 10\n"
)
SKELETON_CFG = "model.kind = diffusion\nmodel.b = affine:1,-1\ngrid.L = 12\n"
GRID_200 = "grid.n = 200\n"
INFINITE_KERNEL = dict(THREE, kernel=[[0.5, np.inf, 0.1], [0.1, 0.6, 0.2], [0.2, 0.2, 0.4]])

#: command, config text, operator JSON (or None)
MALFORMED = {
    "noise-sd-zero": ("model-run", MAP_CFG + "noise.sd = 0\n", None),
    "dim-3": ("model-run", MAP_CFG + "model.dim = 3\n", None),
    "grid-n-zero": ("model-run", MAP_CFG.replace("grid.n = 40", "grid.n = 0"), None),
    "n-traj-5": ("model-run", MAP_CFG + "mc.n_traj = 5\n", None),
    "skeleton-grid-n-1": ("skeleton", SKELETON_CFG + "grid.n = 1\n", None),
    "skeleton-substeps-0": (
        "skeleton", SKELETON_CFG + "grid.n = 200\nskeleton.substeps = 0\n", None
    ),
    "zero-psi": ("reciprocal", "", dict(THREE, psi=[1.0, 0.0, 1.0])),
    "negative-psi1": ("spectral", "", dict(THREE, psi1=[1.0, -1.0, 1.0])),
    "negative-psi2": ("check-g", "", dict(THREE, psi2=[1.0, -1.0, 1.0])),
    "psi2-zero-at-probe-start": ("spectral", "", dict(THREE, psi2=[0.0, 1.0, 1.0])),
    "infinite-psi1": ("check-g", "", dict(THREE, psi1=[1.0, np.inf, 1.0])),
    "infinite-psi2": ("check-g", "", dict(THREE, psi2=[1.0, np.inf, 1.0])),
    "infinite-psi": ("reciprocal", "", dict(THREE, psi=[np.inf, 1.0, 1.0])),
    "n1-zero": ("check-g", "n1 = 0\n", THREE),
    "n1-negative": ("check-g", "n1 = -1\n", THREE),
    "k-indices-empty": ("check-g", "k.indices =\n", THREE),
    "k-index-past-end": ("check-g", "k.indices = 7\n", THREE),
    "k-index-not-a-number": ("check-g", "k.indices = a\n", THREE),
    "k-index-negative": ("check-g", "k.indices = -1\n", THREE),
    "operator-k-empty": ("check-g", "", dict(THREE, K=[])),
    "operator-k-past-end": ("check-g", "", dict(THREE, K=[9])),
    "operator-truncated": ("check-g", "", json.dumps(THREE)[:-7]),
    "spectral-n-max-negative": ("spectral", "n_max = -2\n", THREE),
    "reciprocal-n-max-negative": ("reciprocal", "n_max = -3\n", THREE),
    "check-g-n-max-negative": ("check-g", "n_max = -1\n", THREE),
    "tol-zero": ("spectral", "tol = 0\n", THREE),
    "model-run-n-max-zero": ("model-run", MAP_CFG + "n_max = 0\n", None),
    "model-run-grid-L-nan": ("model-run", MAP_CFG.replace("L = 10", "L = nan"), None),
    "model-run-grid-L-inf": ("model-run", MAP_CFG.replace("L = 10", "L = inf"), None),
    "skeleton-grid-L-nan": ("skeleton", SKELETON_CFG.replace("L = 12", "L = nan") + GRID_200, None),
    "skeleton-grid-L-inf": ("skeleton", SKELETON_CFG.replace("L = 12", "L = inf") + GRID_200, None),
    "skeleton-t0-nan": ("skeleton", SKELETON_CFG + GRID_200 + "skeleton.t0 = nan\n", None),
    "skeleton-t0-inf": ("skeleton", SKELETON_CFG + GRID_200 + "skeleton.t0 = inf\n", None),
    "model-p-nan": ("model-run", MAP_CFG.replace("model.p = 2", "model.p = nan"), None),
    "model-a-nan": ("model-run", MAP_CFG.replace("model.a = 2", "model.a = nan"), None),
    "noise-sd-nan": ("model-run", MAP_CFG + "noise.sd = nan\n", None),
    "selector-parameter-nan": ("model-run", MAP_CFG.replace("linear:0.25", "linear:nan"), None),
    "key-given-twice": ("reciprocal", "n_max = 5\nn_max = 80\n", THREE),
    **{
        f"{command}-infinite-kernel": (command, "", INFINITE_KERNEL)
        for command in ("spectral", "check-g", "reciprocal")
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_usage_error(tmp_path, capsys, case):
    command, text, operator = MALFORMED[case]
    if operator is not None:
        text = f"operator = {write_operator(tmp_path, operator).name}\n" + text
    cfg = write_config(tmp_path, text)
    code = run([command, "--config", cfg, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rpos: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--tol", "--n-max", "--seed"])
def test_override_flags_are_gone(tmp_path, capsys, flag):
    # tol, n_max and mc.seed are config keys only.
    cfg = write_config(tmp_path, f"operator = {write_operator(tmp_path, THREE).name}\n")
    with pytest.raises(SystemExit) as exc:
        run(["spectral", "--config", cfg, "--out", tmp_path / "o", flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, declared",
    [
        ("reciprocal", "n-max = 5\n", "n_max"),
        ("model-run", MAP_CFG + "report.nmax = 5\n", "report.n_max"),
    ],
)
def test_misspelt_key_names_the_declared_key(tmp_path, capsys, command, text, declared):
    # The old flag's spelling and a dropped underscore used to run the default.
    if command == "reciprocal":
        text = f"operator = {write_operator(tmp_path, TWO_STATE).name}\n" + text
    cfg = write_config(tmp_path, text)
    code = run([command, "--config", cfg, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rpos: error: unknown config key") and f"'{declared}'" in err
    assert not (tmp_path / "o").exists()


def test_key_given_twice_names_both_lines(tmp_path, capsys):
    # The last line used to win silently: this ran n_max = 80 and exited 0.
    op = write_operator(tmp_path, THREE)
    cfg = write_config(tmp_path, f"operator = {op.name}\nn_max = 5\n# eq3\nn_max = 80\n")
    assert run(["reciprocal", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rpos: error: ") and "'n_max' is given twice (lines 2 and 4)" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("target", ["config", "operator"])
def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, target):
    # Both ended in a UnicodeDecodeError traceback with exit 1.
    op = write_operator(tmp_path, TWO_STATE)
    cfg = write_config(tmp_path, f"operator = {op.name}\n")
    if target == "config":
        cfg.write_bytes(cfg.read_bytes() + b"\xff\xfe = 1\n")
    else:
        op.write_bytes(op.read_bytes().replace(b'"points"', b'"po\xffints"'))
    assert run(["spectral", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rpos: error: ") and err.count("\n") == 1
    assert str(cfg if target == "config" else op) in err


def test_output_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # The writes ran after the error handling: IsADirectoryError, exit 1.
    op = write_operator(tmp_path, TWO_STATE)
    cfg = write_config(tmp_path, f"operator = {op.name}\n")
    (tmp_path / "o" / "report.json").mkdir(parents=True)
    assert run(["spectral", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rpos: error: ") and err.count("\n") == 1
    assert "report.json" in err


def test_failed_write_leaves_the_earlier_run_as_it_was(tmp_path, capsys):
    # Outputs were written in place one after another: with eq2.csv a
    # directory, a new report.json and eq1.csv landed beside the earlier
    # run's run-metadata.json.
    op = write_operator(tmp_path, TWO_STATE)
    out = tmp_path / "o"
    first = write_config(tmp_path, f"operator = {op.name}\nn_max = 20\n", "first.cfg")
    assert run(["spectral", "--config", first, "--out", out, "--quiet"]) == 0
    (out / "eq2.csv").unlink()
    (out / "eq2.csv").mkdir()
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    second = write_config(tmp_path, f"operator = {op.name}\nn_max = 30\n", "second.cfg")
    assert run(["spectral", "--config", second, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rpos: error: ") and captured.err.count("\n") == 1
    assert "eq2.csv" in captured.err
    assert sorted(path.name for path in out.iterdir()) == sorted([*before, "eq2.csv"])
    assert {name: (out / name).read_bytes() for name in before} == before
    assert list((out / "eq2.csv").iterdir()) == []


@pytest.mark.parametrize(
    "kernel, code, prefix",
    [
        ([[0.0, 1.0], [1.0, 0.0]], 1, "rpos: analysis failed: "),
        ([[0.5, -0.2], [0.1, 0.6]], 2, "rpos: error: "),
    ],
    ids=["period-2", "negative-entry"],
)
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, kernel, code, prefix):
    # The output directory was made before the command ran, so both runs
    # left an empty one behind, and a nested --out a chain of them.
    op = write_operator(tmp_path, dict(TWO_STATE, kernel=kernel))
    cfg = write_config(tmp_path, f"operator = {op.name}\n")
    assert run(["spectral", "--config", cfg, "--out", tmp_path / "o" / "run"]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["o", "o/run"])
def test_output_directory_under_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch, out):
    # Refused before the command runs, as when the directory was made first.
    op = write_operator(tmp_path, TWO_STATE)
    cfg = write_config(tmp_path, f"operator = {op.name}\n")
    (tmp_path / "o").write_text("kept\n")
    monkeypatch.setattr("rpos.cli.power_iterate", None)  # a run would raise TypeError
    assert run(["spectral", "--config", cfg, "--out", tmp_path / out]) == 2
    err = capsys.readouterr().err
    assert err == f"rpos: error: output {tmp_path / 'o'} exists and is not a directory\n"
    assert (tmp_path / "o").read_text() == "kept\n"


def test_metadata_lists_read_and_unread_keys(tmp_path):
    op = write_operator(tmp_path, TWO_STATE)
    cfg = write_config(tmp_path, f"mc.seed = 3\noperator = {op.name}\nn_max = 20\n")
    assert run(["spectral", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == 0
    meta = json.loads((tmp_path / "o" / "run-metadata.json").read_text())
    assert meta["keys_read"] == ["operator", "n_max"]
    assert meta["keys_unread"] == ["mc.seed"]


def test_readme_names_the_declared_keys_of_each_command():
    # Each command's bullet in the README's key list names exactly its keys.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    every_key = set().union(*DECLARED.values())
    for command, keys in DECLARED.items():
        bullet = re.search(rf"^\* `{command}`[^:]*:(.*?)(?=^\* |^$)", readme, re.M | re.S)
        named = set(re.findall(r"`([^`]+)`", bullet.group(1))) & every_key
        assert named == set(keys), command


#: Backticked words of the README's key bullets that name no key: values,
#: report fields, operator fields and the profile's symbol.
README_NON_KEYS = {
    "pds", "diffusion", "all", "box", "iterations", "psi2", "K", "zeta", "zeta_m",
    "lambda0", "discrepancy", "relative",
}


def test_readme_names_no_key_a_command_does_not_read():
    # The converse of the test above: a key no longer in the table may not
    # linger in its command's bullet, where that test cannot see it.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for command, keys in DECLARED.items():
        bullet = re.search(rf"^\* `{command}`[^:]*:(.*?)(?=^\* |^$)", readme, re.M | re.S)
        words = set(re.findall(r"`([\w.]+)`", bullet.group(1)))
        named = {w for w in words if not re.search(r"\.(json|csv)$", w)} - README_NON_KEYS
        assert named == set(keys), command


def test_readme_minimal_session_runs():
    # The library tour's one python block runs as README shows it.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (session,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(session, "README.md", "exec"), {})


def defined_names(module):
    """The names a module defines, imports, reads or takes: its attributes and
    every name, attribute, parameter and identifier-like string in its source."""
    names = set(dir(module)) | set(dir(builtins))
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # a report key or the program name
    return names


def test_readme_library_tour_names_only_what_exists():
    # Each backticked name in a row of the library-tour table resolves in that
    # row's module or is a public name of rpos. A call names its function, a
    # dotted path its last attribute, and check_g1..g4 both ends of the
    # range; file names and formulas name nothing.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.search(r"^\| module \| contents \|\n\|[- |]+\n((?:\|.*\n)+)", readme, re.M)
    rows = re.findall(r"^\| `([\w.]+)` \| (.*) \|$", table.group(1), re.M)
    assert len(rows) == 7
    for module_name, contents in rows:
        known = defined_names(importlib.import_module(module_name)) | set(dir(rpos))
        for token in re.findall(r"`([^`]+)`", contents):
            head = re.match(r"[A-Za-z_][\w.]*", token)
            if head is None or re.search(r"\.(json|csv)$", token):
                continue
            first, *ends = head.group(0).split("..")
            names = [first.split(".")[-1], *(first[: -len(end)] + end for end in ends)]
            missing = [name for name in names if name not in known]
            assert not missing, f"{module_name}: `{token}` names {missing}"


#: The commands that run no Monte Carlo probe: config text, operator JSON (or None)
SEEDLESS = {
    "spectral": ("", THREE),
    "check-g": ("", THREE),
    "reciprocal": ("", THREE),
    "skeleton": (SKELETON_CFG + "grid.n = 200\n", None),
}


def test_dumps_is_json_dumps_with_indent_2(tmp_path):
    # README's output contract: every JSON file a command writes is laid out
    # as json.dumps(obj, indent=2) writes it, with LF line endings and a
    # final newline.
    small = {**SEEDLESS, "model-run": (MAP_CFG + "mc.n_traj = 100\n", None)}
    for command, (text, operator) in small.items():
        where = tmp_path / command
        where.mkdir()
        if operator is not None:
            text = f"operator = {write_operator(where, operator).name}\n" + text
        cfg = write_config(where, text)
        out = where / "out"
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) in (0, 1)
        written = sorted(out.glob("*.json"))
        assert "report.json" in [path.name for path in written], command
        for path in written:
            text = path.read_bytes().decode()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", path


def key_paths(obj, prefix=""):
    """The dotted key paths of a parsed report in file order; a state-index
    key (digits only) reads as *, so the paths name the layout, not data."""
    if not isinstance(obj, dict):
        return [prefix[:-1]]
    paths = []
    for key, value in obj.items():
        for path in key_paths(value, prefix + ("*" if key.isdigit() else key) + "."):
            if path not in paths:
                paths.append(path)
    return paths


def under(prefix, keys):
    return [f"{prefix}.{key}" for key in keys]


TRIPLE_KEYS = ["theta0", "eta", "nu_P", "right_residual", "left_residual", "iterations"]
FIT_KEYS = ["target", "fitted_rate", "fitted_constant", "burn_in", "scale", "pass"]
G_REPORT_KEYS = [
    *under("g1", ["c1", "nu", "n1", "pass"]),
    *under("g2", ["theta1", "theta2", "c2", "inf_ratio", "sup_ratio", "psi2_scale", "pass"]),
    *under("g3", ["c3", "n_checked", "failed_at", "pass"]),
    *under("g4", ["n4.*", "pass"]),
    "overall",
]
#: Per command: config text, operator JSON (or None), report.json's key paths.
REPORT_LAYOUT = {
    "spectral": ("", THREE, [
        "schema", "command", *under("triple", TRIPLE_KEYS),
        *under("eq1", FIT_KEYS), *under("eq2", FIT_KEYS),
    ]),
    "check-g": ("", THREE, ["schema", "command", *under("g_report", G_REPORT_KEYS)]),
    "reciprocal": ("n_max = 80\n", TWO_STATE, [
        "schema", "command", *under("triple", TRIPLE_KEYS),
        *under("certificate", [
            "overall", "stage", "m", "lambda", "rho", "d", "C_R", "n2",
            "eigen_residual", "V0", "psi1", "K", "nu", "support",
            *under("g_report", G_REPORT_KEYS), "zeta", "diagnostics",
        ]),
        *under("eq3", FIT_KEYS),
    ]),
    "model-run": (MAP_CFG + "mc.n_traj = 100\n", None, [
        "schema", "command", "theta2_seed", "n0", "K", "max_row_leak", "max_psi1_leak",
        *under("hypotheses", [
            "shell_radii", "shell_values", "diverging", "warnings",
            *under("details", ["penalty_envelope_C", "sup_inv_G", "C_prime"]),
        ]),
        *under("g_report", G_REPORT_KEYS), *under("triple", TRIPLE_KEYS),
        *under("eq1", FIT_KEYS), *under("eq2", FIT_KEYS),
        *under("mc_probe", [
            "value", "std_error", "n_traj", "n_killed", "seed", "grid_value", "z_score",
        ]),
    ]),
    "skeleton": (SKELETON_CFG + "grid.n = 200\n", None, [
        "schema", "command",
        *under("skeleton", [
            "lambda0", "c_bar", "c_under", "t0", *under("triple", TRIPLE_KEYS),
            *under("eq1cont", FIT_KEYS), *under("eq2cont", FIT_KEYS), "pass",
        ]),
        *under("girsanov", ["discrepancy", "relative", "a", "h", "t0"]),
    ]),
}


@pytest.mark.parametrize("command", sorted(REPORT_LAYOUT))
def test_report_json_keeps_its_layout(tmp_path, command):
    text, operator, expected = REPORT_LAYOUT[command]
    if operator is not None:
        text = f"operator = {write_operator(tmp_path, operator).name}\n" + text
    cfg = write_config(tmp_path, text)
    assert run([command, "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert key_paths(report) == expected


CYCLE = dict(TWO_STATE, kernel=[[0.0, 1.0], [1.0, 0.0]])
#: Per case: command, config text, operator JSON (or None), exit code, stdout.
STDOUT = {
    "check-g-pass": ("check-g", "", THREE, 0, (
        "g1  PASS  c1=0.4 n1=1\n"
        "g2  PASS  theta1=0 theta2=0.8 c2=0.9 inf_ratio=1 sup_ratio=1\n"
        "g3  PASS  c3=1.22474 n=100\n"
        "g4  PASS  n4_max=1\n"
        "overall  PASS\n"
    )),
    "check-g-cycle": ("check-g", "k.indices = 0\n", CYCLE, 1, (
        "g1  PASS  c1=1 n1=2\n"
        "g2  FAIL  theta1=1 theta2=1 c2=0 inf_ratio=1 sup_ratio=1\n"
        "g3  PASS  c3=1 n=100\n"
        "g4  FAIL  n4_max=-\n"
        "overall  FAIL\n"
    )),
    "model-run": ("model-run", MAP_CFG, None, 0, (
        "g1  PASS  c1=0.114157 n1=1\n"
        "g2  PASS  theta1=0.276324 theta2=0.935951 c2=8.56353 inf_ratio=0.0497871 "
        "sup_ratio=1\n"
        "g3  PASS  c3=20.0855 n=100\n"
        "g4  PASS  n4_max=1\n"
        "overall  PASS\n"
        "theta0 = 1\n"
    )),
}


@pytest.mark.parametrize("case", sorted(STDOUT))
def test_stdout_prints_the_g_table(tmp_path, capsys, case):
    command, text, operator, code, stdout = STDOUT[case]
    if operator is not None:
        text = f"operator = {write_operator(tmp_path, operator).name}\n" + text
    cfg = write_config(tmp_path, text)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("command", sorted(SEEDLESS))
def test_commands_without_monte_carlo_ignore_mc_seed(tmp_path, command):
    text, operator = SEEDLESS[command]
    if operator is not None:
        text = f"operator = {write_operator(tmp_path, operator).name}\n" + text
    cfg = write_config(tmp_path, text + "mc.seed = x\n")
    code = run([command, "--config", cfg, "--out", tmp_path / "o", "--quiet"])
    assert code in (0, 1)
    assert (tmp_path / "o" / "report.json").exists()


#: Per command: the values each documented key accepts, then the values (None:
#: the key left out) that must end in exit code 2 or in a typed analysis error.
MODEL_RUN_KEYS = (
    {
        "model.kind": ["pds"],
        "model.F": ["linear:0.25", "const:0.5", "zero", "affine:0.1,0.5"],
        "model.G": ["const:1", "exp_abs:0.1"],
        "model.p": ["2", "3"],
        "model.a": ["2", "1.5"],
        "model.dim": ["1", "2"],
        "model.domain": ["all", "box"],
        "noise.sd": ["1", "0.8"],
        "grid.n": ["1", "2", "5", "12"],
        "grid.L": ["10", "8"],
        "report.n_max": ["40", "3", "0"],
        "mc.n_traj": ["0", "100"],
        "mc.seed": ["3", "0"],
    },
    {
        "model.kind": [None, "diffusion", "x"],
        "model.F": [None, "linear:3", "linear", "x:1"],
        "model.G": ["const:0", "zero", "affine_sum:1"],
        "model.p": [None, "1", "x"],
        "model.a": [None, "0.5", "-1"],
        "model.dim": ["3", "0", "x"],
        "model.domain": ["disk"],
        "noise.sd": ["0", "-1", "x", "nan"],
        "grid.n": [None, "0", "-3", "x"],
        "grid.L": [None, "0", "-2", "4", "nan", "inf"],
        "report.n_max": ["-1", "x"],
        "mc.n_traj": ["5", "-1", "x"],
        "mc.seed": ["-1", "x"],
        "report.nmax": ["5"],
    },
)
SKELETON_KEYS = (
    {
        "model.kind": ["diffusion"],
        "model.b": ["affine:1,-1", "const:0.5", "zero", "linear:-1"],
        "model.r": ["const:0", "const:-0.5", "affine_sum:0,-0.1", "zero"],
        "model.dim": ["1", "2"],
        "grid.n": ["2", "6", "12"],
        "grid.L": ["3", "6"],
        "skeleton.t0": ["1", "0.25"],
        "skeleton.substeps": ["8", "2", "1"],
    },
    {
        "model.kind": [None, "pds"],
        "model.b": [None, "affine:1", "x"],
        "model.r": ["x:1"],
        "model.dim": ["3", "x"],
        "grid.n": [None, "1", "0", "x"],
        "grid.L": [None, "0", "-1", "x", "nan", "inf"],
        "skeleton.t0": ["0", "-1", "x", "nan", "inf"],
        "skeleton.substeps": ["0", "-1", "x"],
        "skeleton.t": ["1"],
    },
)


def _configs(command, keys):
    """A valid config with up to two keys replaced by invalid values."""
    valid, invalid = keys
    base = st.fixed_dictionaries({k: st.sampled_from(v) for k, v in valid.items()})
    broken = st.sampled_from([(k, v) for k, vals in invalid.items() for v in vals])
    return st.tuples(st.just(command), base, st.lists(broken, max_size=2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_configs("model-run", MODEL_RUN_KEYS) | _configs("skeleton", SKELETON_KEYS))
def test_small_configs_exit_with_a_code(drawn):
    # Any config, valid or not, ends in exit code 0, 1 or 2, never a traceback.
    command, entries, broken = drawn
    entries = {**entries, **dict(broken)}
    text = "".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), text)
        code = run([command, "--config", cfg, "--out", Path(tmp) / "o", "--quiet"])
    assert code in (0, 1, 2)


@st.composite
def _operator_bundles(draw):
    """Operator JSON on 1-5 states with optional report.n_max and mc.seed
    config lines, model-run keys that these commands leave unread.

    Kernels are dense, triangular (reducible), cyclic (periodic), a lazy
    walk (slow gap: power_iterate takes Noda steps) or a Jordan block
    (defective), may carry a zero row and a zero column, and are scaled by
    up to 1e+-300; psi, psi1 and psi2 are each present or not, and may hold
    an infinite entry.
    """
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])
    kernel = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    kernel = kernel.reshape(n, n)
    shapes = ["dense", "triangular", "cyclic", "lazy-walk", "jordan"]
    shape = draw(st.sampled_from(shapes))
    if shape == "triangular":
        kernel = np.triu(kernel)
    elif shape == "cyclic":
        kernel = np.roll(np.eye(n), 1, axis=1) * draw(st.sampled_from([0.5, 1.0, 2.0]))
    elif shape == "lazy-walk":
        kernel = 0.9 * np.eye(n) + 0.05 * (np.eye(n, k=1) + np.eye(n, k=-1))
    elif shape == "jordan":
        kernel = 0.5 * np.eye(n) + np.eye(n, k=1)
    zero = st.none() | st.integers(0, n - 1)
    zero_row, zero_col = draw(zero), draw(zero)
    if zero_row is not None:
        kernel[zero_row, :] = 0.0
    if zero_col is not None:
        kernel[:, zero_col] = 0.0
    kernel *= 10.0 ** draw(st.sampled_from([-300, -150, -20, 0, 20, 150, 300]))
    data = {
        "points": [[float(i)] for i in range(n)],
        "ref_weights": [1.0] * n,
        "kernel": kernel.tolist(),
    }
    weights = {"psi": [0.5, 1.0, 4.0, 1e10, np.inf],
               "psi1": [0.5, 1.0, 4.0, 1e10, np.inf],
               "psi2": [0.0, 0.5, 1.0, 1e10, np.inf]}
    for name, values in weights.items():
        vec = st.lists(st.sampled_from(values), min_size=n, max_size=n)
        vec = draw(st.none() | vec)
        if vec is not None:
            data[name] = vec
    report_n_max = draw(st.none() | st.integers(-1, 3))
    seed = draw(st.none() | st.sampled_from(["3", "-1", "x"]))
    text = "" if report_n_max is None else f"report.n_max = {report_n_max}\n"
    return data, text + ("" if seed is None else f"mc.seed = {seed}\n")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_operator_bundles())
def test_operator_commands_exit_with_a_code(drawn):
    # spectral, check-g and reciprocal end in exit code 0, 1 or 2 on any
    # operator JSON, never in a traceback or a RuntimeWarning.
    data, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        op = write_operator(Path(tmp), data)
        cfg = write_config(Path(tmp), f"operator = {op.name}\n" + text)
        for command in ("spectral", "check-g", "reciprocal"):
            out = Path(tmp) / command
            code = run([command, "--config", cfg, "--out", out, "--quiet"])
            assert code in (0, 1, 2)


# A pool small enough that entries repeat, holding the values json spells
# specially and its longest float, -2.2250738585072014e-308 (24 characters).
_ARRAY_POOL = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16,
               1e-5, 1e-4, 0.1, 1 / 3, -2.5e-300, 123456789.125,
               -2.2250738585072014e-308]
# Up to two gather chunks of rows and one more, rows up to 100 wide.
_ROW_COUNTS = st.integers(1, 2 * _BLOCK_ROWS + 1)
_ARRAY_SHAPES = st.tuples(_ROW_COUNTS) | st.tuples(_ROW_COUNTS, st.integers(1, 100))


@st.composite
def _float_arrays(draw):
    """Rows drawn from the pool, then up to 150 rows of distinct floats of
    all magnitudes, so an array is repeat-heavy, mostly distinct or
    repeat-heavy in its first rows only."""
    pooled = draw(_ARRAY_SHAPES.flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.sampled_from(_ARRAY_POOL))
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(0, 150)), *pooled.shape[1:])
    distinct = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    return np.concatenate([pooled, distinct])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_float_arrays(), st.integers(0, 2))
@example(np.array([[-2.2250738585072014e-308]]), 1)
@example(np.array([[5e-324]]), 0)
@example(np.array([-0.0]), 2)
def test_dumps_writes_float_arrays_as_their_lists(array, depth):
    newline = "\n" + "  " * depth
    expected = json.dumps(array.tolist(), indent=2).replace("\n", newline)
    # A bool: pytest would diff the two texts at every failing call, which
    # takes minutes on kernel-sized strings.
    same = "".join(_encode_floats(array, newline)) == expected
    assert same


def count_floats(obj):
    if isinstance(obj, list):
        return sum(count_floats(entry) for entry in obj)
    return isinstance(obj, float)


def test_kernel_json_reprs_each_distinct_entry_once(monkeypatch):
    # The bundled map model repeats most kernel entries (2 500 distinct of
    # 40 000 at grid 200). Each distinct one is passed to json.dumps once:
    # tokens per block of rows, or per entry, would pass more.
    from rpos import build_pds_kernel
    from rpos.models import PdsModel, scalar_field, vector_field

    model = PdsModel(F=vector_field("linear:0.25", 1), G=scalar_field("const:1"),
                     noise_sd=1.0, grid_n=200, L=10.0, p=2.0, a=2.0, dim=1)
    kernel = build_pds_kernel(model).operator.kernel
    dumps, passed = json.dumps, []

    def counting(obj, *args, **kwargs):
        passed.append(count_floats(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    for _ in _encode_floats(kernel, "\n  "):
        pass
    assert sum(passed) == np.unique(kernel.view(np.int64)).size < kernel.size


@pytest.mark.parametrize("dim, grid_n", [(1, 200), (2, 15)])
def test_kernel_json_without_repeats_is_json_dumps(dim, grid_n):
    # At slope 0.2467 far fewer entries repeat than at 0.25 (85 % and 39 %
    # distinct here), so both the list fallback and the token table run.
    from rpos import build_pds_kernel
    from rpos.models import PdsModel, scalar_field, vector_field

    model = PdsModel(F=vector_field("linear:0.2467", dim), G=scalar_field("const:1"),
                     noise_sd=1.0, grid_n=grid_n, L=10.0,
                     p=2.0, a=2.0, dim=dim)
    op = build_pds_kernel(model).operator
    same = "".join(_operator_json(op)) == json.dumps(operator_layout(op), indent=2) + "\n"
    assert same  # a bool, as above


def test_kernel_json_is_written_in_row_chunks(tmp_path):
    # The file was held whole, as its chunks and again as their join, beside
    # the sort's temporaries: a traced peak of 2.0 times its size here.
    from rpos import build_pds_kernel
    from rpos.models import PdsModel, scalar_field, vector_field

    model = PdsModel(F=vector_field("linear:0.25", 1), G=scalar_field("const:1"),
                     noise_sd=1.0, grid_n=800, L=10.0, p=2.0, a=2.0, dim=1)
    op = build_pds_kernel(model).operator
    tracemalloc.start()
    try:
        _write_all(tmp_path, {"kernel.json": _operator_json(op)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "kernel.json").stat().st_size
    # Each row of a chunk ends in the "[" that opens the next.
    assert max(chunk.count("[") for chunk in _operator_json(op)) == _BLOCK_ROWS


def test_body_failing_mid_stream_writes_no_output(tmp_path, monkeypatch):
    # kernel.json is encoded while it is written, after report.json.
    def failing(array, newline):
        yield "["
        raise RuntimeError("encoder failed")

    monkeypatch.setattr("rpos.cli._encode_floats", failing)
    cfg = write_config(tmp_path, TestModelRunCommand.CFG.replace("grid.n = 160", "grid.n = 40"))
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match="encoder failed"):
        run(["model-run", "--config", cfg, "--out", out, "--quiet"])
    assert list(out.iterdir()) == []
