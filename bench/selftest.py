"""Each output check accepts what rpos writes and rejects a perturbed copy.

Run from the root of a checkout:

    python3 -m pytest bench/selftest.py -q

The correct outputs come from small rpos runs made here; every test then
perturbs one field by an amount far below what a user would notice and
asserts that the check reports it.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import rpos.cli  # noqa: E402
import rpos.spectral  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def rpos_run(tmp_path, command, entries, name="op"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    out = tmp_path / name
    code = rpos.cli.main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    return code, out


def write_operator(tmp_path, name, points, weights, kernel):
    (tmp_path / f"{name}.json").write_text(json.dumps(ref.operator_json(points, weights, kernel)))
    return {"operator": f"{name}.json"}


def read(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# map model


MAP = {"n": 100, "dim": 1, "slope": 0.25, "sd": 1.0}


@pytest.fixture(scope="module")
def map_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("map")
    code, out = rpos_run(
        tmp,
        "model-run",
        {
            "model.kind": "pds", "model.F": "linear:0.25", "model.p": 2, "model.a": 2,
            "noise.sd": 1.0, "grid.n": MAP["n"], "grid.L": 10, "mc.n_traj": 2000, "mc.seed": 3,
        },
    )
    assert code == 0
    pts, cell, kernel = ref.map_kernel(MAP["n"], 10.0, 1, MAP["slope"], MAP["sd"])
    return {
        "kernel_json": read(out / "kernel.json"),
        "report": read(out / "report.json"),
        "ref": (pts, cell, kernel),
        "theta": ref.perron_root(kernel),
    }


def test_kernel_check_accepts_rpos_and_rejects_a_scaled_entry(map_run):
    pts, cell, kernel = map_run["ref"]
    assert ref.check_kernel(map_run["kernel_json"], pts, cell, kernel) == []
    bad = copy.deepcopy(map_run["kernel_json"])
    bad["kernel"][37][41] *= 1 + 1e-6
    assert ref.check_kernel(bad, pts, cell, kernel)
    bad = copy.deepcopy(map_run["kernel_json"])
    bad["ref_weights"][0] *= 1 + 1e-9
    assert ref.check_kernel(bad, pts, cell, kernel)


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: r["triple"].__setitem__("theta0", r["triple"]["theta0"] * (1 + 1e-8)),
        lambda r: r["triple"]["eta"].__setitem__(5, -1e-300),
        lambda r: r["triple"]["nu_P"].__setitem__(5, -1e-300),
        lambda r: r["g_report"].__setitem__("overall", False),
        lambda r: r["eq1"].__setitem__("pass", False),
        lambda r: r["eq2"].__setitem__("pass", False),
        lambda r: r["mc_probe"].__setitem__("z_score", 5.0),
    ],
)
def test_model_run_check(map_run, perturb):
    assert ref.check_model_run(map_run["report"], map_run["theta"]) == []
    bad = copy.deepcopy(map_run["report"])
    perturb(bad)
    assert ref.check_model_run(bad, map_run["theta"])


# ---------------------------------------------------------------------------
# operator files: killed walk and boxed kernel


def test_walk_check(tmp_path):
    n = 40
    sites = np.arange(n, dtype=float)[:, None]
    entries = write_operator(tmp_path, "walk", sites, 1.0, ref.walk_kernel(n, 0.35, 0.3))
    code, out = rpos_run(tmp_path, "spectral", entries)
    assert code == 0
    report = read(out / "report.json")
    assert ref.check_walk(report, n, 0.35, 0.3) == []
    bad = copy.deepcopy(report)
    bad["triple"]["theta0"] *= 1 + 1e-8
    assert ref.check_walk(bad, n, 0.35, 0.3)
    bad = copy.deepcopy(report)
    bad["triple"]["eta"][7] *= 1 + 1e-8
    assert ref.check_walk(bad, n, 0.35, 0.3)
    assert ref.check_walk(report, n + 1, 0.35, 0.3)


@pytest.fixture(scope="module")
def box_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("box")
    pts, cell, kernel = ref.map_kernel(120, 10.0, 1, 0.9, 1.0)
    code, out = rpos_run(tmp, "reciprocal", write_operator(tmp, "box", pts, cell, kernel))
    assert code == 0
    return {
        "report": read(out / "report.json"),
        "zeta": workloads._read_errors(out / "eq3.csv"),
        "kernel": kernel,
        "cell": cell,
        "theta": ref.perron_root(kernel),
    }


def _reciprocal_problems(run, report=None, zeta=None):
    return ref.check_reciprocal(
        run["report"] if report is None else report,
        run["zeta"] if zeta is None else zeta,
        run["kernel"],
        run["cell"],
        run["theta"],
    )


def test_reciprocal_check_accepts_rpos(box_run):
    assert box_run["report"]["eq3"]["pass"] is True
    assert _reciprocal_problems(box_run) == []


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: r["triple"].__setitem__("theta0", r["triple"]["theta0"] * (1 + 1e-8)),
        lambda r: r["certificate"].__setitem__("overall", False),
        lambda r: r["certificate"].__setitem__("C_R", 0.0),
        lambda r: r["certificate"].__setitem__("rho", r["certificate"]["rho"] * 0.5),
        lambda r: r["certificate"]["V0"].__setitem__(
            int(np.argmax(r["certificate"]["V0"])), max(r["certificate"]["V0"]) * 0.99
        ),
    ],
)
def test_reciprocal_check_rejects_a_perturbed_report(box_run, perturb):
    bad = copy.deepcopy(box_run["report"])
    perturb(bad)
    assert _reciprocal_problems(box_run, report=bad)


@pytest.mark.parametrize("n", [1, 8, 32])
def test_reciprocal_check_rejects_a_perturbed_zeta(box_run, n):
    zeta = box_run["zeta"].copy()
    zeta[n] *= 1 + 1e-6
    assert _reciprocal_problems(box_run, zeta=zeta)


# ---------------------------------------------------------------------------
# diffusion


SKELETON = {"dim": 1, "n": 60, "L": 6.0, "c0": 1.0, "c1": 1.0}


@pytest.fixture(scope="module")
def skeleton_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("skeleton")
    code, out = rpos_run(
        tmp,
        "skeleton",
        {
            "model.kind": "diffusion", "model.b": "affine:1,-1", "grid.n": SKELETON["n"],
            "grid.L": SKELETON["L"], "skeleton.t0": 1,
        },
    )
    assert code == 0
    return read(out / "report.json")


def _stencil_lambda0():
    s = SKELETON
    return ref.top_eigenvalue(ref.diffusion_generator(s["n"], s["L"], s["dim"], s["c0"], -s["c1"]))


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: r["skeleton"].__setitem__("lambda0", r["skeleton"]["lambda0"] * (1 + 1e-8)),
        lambda r: r["skeleton"].__setitem__("pass", False),
        lambda r: r["skeleton"].__setitem__("c_under", 0.0),
        lambda r: r["skeleton"].__setitem__("c_bar", float("inf")),
    ],
)
def test_skeleton_check(skeleton_report, perturb):
    lam = _stencil_lambda0()
    assert ref.check_skeleton(skeleton_report, lam) == []
    bad = copy.deepcopy(skeleton_report)
    perturb(bad)
    assert ref.check_skeleton(bad, lam)


def test_two_dimensional_stencil_is_the_kronecker_sum():
    one_d = ref.top_eigenvalue(ref.diffusion_generator(12, 5.0, 1, 1.0, -1.0))
    two_d = ref.top_eigenvalue(ref.diffusion_generator(12, 5.0, 2, 1.0, -1.0))
    assert abs(two_d - 2.0 * one_d) <= 1e-12 * abs(two_d)


def test_girsanov_refinement_check():
    assert ref.check_girsanov_refines(1e-4, 5e-5) == []
    assert ref.check_girsanov_refines(5e-5, 5e-5)
    assert ref.check_girsanov_refines(5e-5, 1e-4)


def test_survival_check():
    lam, t = -0.25, np.array([1.0, 2.0, 3.0, 4.0])
    values = 0.8 * np.exp(lam * t)
    se = 0.004 * values
    assert ref.check_survival(t, values, se, lam) == []
    assert ref.check_survival(t, values * np.exp(0.02 * t), se, lam)
    assert ref.check_survival(t, np.append(values[:3], 1.5), se, lam)


# ---------------------------------------------------------------------------
# repeatability and tracing


def test_digest_sees_one_changed_byte_but_not_the_metadata(tmp_path):
    op = workloads.CliOp("op", "spectral", tmp_path / "op.cfg")
    (tmp_path / "op").mkdir()
    (tmp_path / "op" / "report.json").write_text('{"theta0": 0.7}\n')
    (tmp_path / "op" / "run-metadata.json").write_text('{"elapsed_s": 1.0}\n')
    before = run.digest([op], [0], tmp_path)
    (tmp_path / "op" / "run-metadata.json").write_text('{"elapsed_s": 2.0}\n')
    assert run.digest([op], [0], tmp_path) == before
    (tmp_path / "op" / "report.json").write_text('{"theta0": 0.8}\n')
    assert run.digest([op], [0], tmp_path) != before


def test_tracing_changes_no_output_byte_and_restores_the_functions(tmp_path):
    sites = np.arange(30, dtype=float)[:, None]
    entries = write_operator(tmp_path, "walk", sites, 1.0, ref.walk_kernel(30, 0.35, 0.3))
    originals = (rpos.cli.main, rpos.cli.power_iterate, rpos.spectral.power_iterate)
    _, plain = rpos_run(tmp_path, "spectral", entries, name="plain")
    tracer = Tracer()
    with tracer.installed():
        assert rpos.cli.power_iterate is not originals[1]
        _, traced = rpos_run(tmp_path, "spectral", entries, name="traced")
    assert (rpos.cli.main, rpos.cli.power_iterate, rpos.spectral.power_iterate) == originals
    for name in ("report.json", "eq1.csv", "eq2.csv"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    metrics = tracer.round_metrics(0)
    assert metrics["spectral.power_iterations"] == read(plain / "report.json")["triple"][
        "iterations"
    ]
    assert metrics["cli.self_s"] > 0.0 and metrics["spectral.power_iterate_s"] > 0.0
