"""The four benchmark workloads: their inputs, operations and output checks.

A workload makes its inputs from the seed (`make_inputs`, which needs only
numpy), lists the operations one round performs (`operations`, which needs
the imported rpos package), tells a failed operation from a good one
(`failed`) and checks the outputs of the first round against `reference`
(`check`). Every round repeats the same operations on the same inputs.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref


@dataclass(frozen=True)
class CliOp:
    """One `rpos <command> --config <cfg>` call, made in-process."""

    name: str
    command: str
    config: Path

    def run(self, rpos, out_root: Path):
        argv = [self.command, "--config", str(self.config), "--out", str(out_root / self.name)]
        return rpos.cli.main(argv + ["--quiet"])


@dataclass(frozen=True)
class McOp:
    """One `mc_feynman_kac` call on the killed diffusion."""

    name: str
    model: object
    horizon: float
    n_traj: int
    seed: int
    substep: float

    def run(self, rpos, out_root: Path):
        est = rpos.models.mc_feynman_kac(
            self.model, [1.0], self.horizon, _ones, self.n_traj, self.seed, substep=self.substep
        )
        return (est.value, est.std_error, est.n_killed)


def _ones(y):
    return np.ones(y.shape[0])


def _write_config(path: Path, entries: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_errors(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["error"]) for row in csv.DictReader(fh)])


class Workload:
    name = ""

    def make_inputs(self, seed: int, where: Path) -> dict:
        """Write the configs and operator files under `where`; return the parameters."""
        params = self.parameters(random.Random(seed))
        where.mkdir(parents=True, exist_ok=True)
        self.write_files(params, where)
        (where / "inputs.json").write_text(json.dumps(params, indent=1))
        return params

    def parameters(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def write_files(self, params: dict, where: Path):
        pass

    def failed(self, op, result, out: Path) -> bool:
        return result != 0

    def check(self, params: dict, ops: list, results: list, out: Path) -> list:
        raise NotImplementedError


def _uniform(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


class MapModelRun(Workload):
    """`rpos model-run` on the bundled map model X' = 0.25 X + xi, G = 1, box [-10, 10]^d.

    The seed moves only the Monte Carlo seed. The model stays fixed because
    the eq2 verdict flips with it: the profile reaches its round-off
    plateau within the fit window, and for some slopes and noise levels
    near these the plateau sits at the fit's floor (see CHANGES.md). Here
    it sits below a tenth of the floor.
    """

    name = "map-model-run"
    L, SLOPE, SD = 10.0, 0.25, 1.0
    #: name, dim, model.domain, grid.n, mc.n_traj
    CONFIGS = (
        ("1d-all", 1, "all", 800, 20000),
        ("1d-box", 1, "box", 400, 0),
        ("2d-all", 2, "all", 20, 20000),
        ("2d-box", 2, "box", 24, 0),
    )

    def parameters(self, rng):
        return {
            name: {
                "dim": dim,
                "domain": domain,
                "n": n,
                "slope": self.SLOPE,
                "sd": self.SD,
                "n_traj": n_traj,
                "mc_seed": rng.randrange(2**31),
            }
            for name, dim, domain, n, n_traj in self.CONFIGS
        }

    def write_files(self, params, where):
        for name, p in params.items():
            entries = {
                "model.kind": "pds",
                "model.F": f"linear:{p['slope']}",
                "model.G": "const:1",
                "model.p": 2,
                "model.a": 2,
                "model.dim": p["dim"],
                "model.domain": p["domain"],
                "noise.sd": p["sd"],
                "grid.n": p["n"],
                "grid.L": self.L,
            }
            if p["n_traj"]:
                entries.update({"mc.n_traj": p["n_traj"], "mc.seed": p["mc_seed"]})
            _write_config(where / f"{name}.cfg", entries)

    def operations(self, params, where, rpos):
        return [CliOp(name, "model-run", where / f"{name}.cfg") for name in params]

    def check(self, params, ops, results, out):
        problems = []
        for op in ops:
            p = params[op.name]
            pts, cell, kernel = ref.map_kernel(p["n"], self.L, p["dim"], p["slope"], p["sd"])
            written = _read_json(out / op.name / "kernel.json")
            found = ref.check_kernel(written, pts, cell, kernel)
            del written
            report = _read_json(out / op.name / "report.json")
            found += ref.check_model_run(report, ref.perron_root(kernel))
            problems += [f"{op.name}: {msg}" for msg in found]
        return problems


class OperatorReciprocal(Workload):
    """`rpos reciprocal` on boxed map kernels and `rpos spectral` on killed walks.

    Two inputs do not depend on the seed and fail today: eq3 on the fast
    boxed kernel (slope 0.25, grid 300) reports pass: false from round-off,
    and the walk on 200 sites exhausts the power iteration's 20 000 sweeps.
    """

    name = "operator-reciprocal"
    L = 10.0
    STAY, MOVE = 0.35, 0.3
    FIXED_BOX = {"n": 300, "slope": 0.25, "sd": 1.0}
    FIXED_WALK = 200

    def parameters(self, rng):
        boxes = {
            name: {"n": 400, "slope": _uniform(rng, 0.88, 0.92), "sd": _uniform(rng, 0.9, 1.1)}
            for name in ("box-a", "box-b")
        }
        boxes["box-fixed"] = dict(self.FIXED_BOX)
        walks = {"walk": {"n": 98 + rng.randrange(5)}, "walk-fixed": {"n": self.FIXED_WALK}}
        return {"boxes": boxes, "walks": walks}

    def write_files(self, params, where):
        for name, p in params["boxes"].items():
            pts, cell, kernel = ref.map_kernel(p["n"], self.L, 1, p["slope"], p["sd"])
            (where / f"{name}.json").write_text(json.dumps(ref.operator_json(pts, cell, kernel)))
            _write_config(where / f"{name}.cfg", {"operator": f"{name}.json"})
        for name, p in params["walks"].items():
            sites = np.arange(p["n"], dtype=float)[:, None]
            kernel = ref.walk_kernel(p["n"], self.STAY, self.MOVE)
            (where / f"{name}.json").write_text(json.dumps(ref.operator_json(sites, 1.0, kernel)))
            _write_config(where / f"{name}.cfg", {"operator": f"{name}.json"})

    def operations(self, params, where, rpos):
        ops = [CliOp(name, "reciprocal", where / f"{name}.cfg") for name in params["boxes"]]
        return ops + [CliOp(name, "spectral", where / f"{name}.cfg") for name in params["walks"]]

    def failed(self, op, result, out):
        if result != 0:
            return True
        if op.command == "reciprocal":
            # A strictly positive kernel converges geometrically: eq3 must pass.
            return _read_json(out / op.name / "report.json")["eq3"]["pass"] is not True
        return False

    def check(self, params, ops, results, out):
        problems = []
        for op in ops:
            report = _read_json(out / op.name / "report.json")
            if op.command == "reciprocal":
                p = params["boxes"][op.name]
                _, cell, kernel = ref.map_kernel(p["n"], self.L, 1, p["slope"], p["sd"])
                zeta = _read_errors(out / op.name / "eq3.csv")
                found = ref.check_reciprocal(report, zeta, kernel, cell, ref.perron_root(kernel))
            else:
                found = ref.check_walk(report, params["walks"][op.name]["n"], self.STAY, self.MOVE)
            problems += [f"{op.name}: {msg}" for msg in found]
        return problems


class DiffusionSkeleton(Workload):
    """`rpos skeleton` on dX = (c0 - c1 X) dt + dB, killed at 0 and L."""

    name = "diffusion-skeleton"
    #: name, dim, grid.n, grid.L; the 2D box is smaller because the central
    #: stencil needs h <= 1/max|b| (StabilityError otherwise).
    CONFIGS = (("1d-coarse", 1, 400, 12.0), ("1d-fine", 1, 600, 12.0), ("2d", 2, 28, 5.0))

    def parameters(self, rng):
        drift = {"c0": _uniform(rng, 0.9, 1.1), "c1": _uniform(rng, 0.9, 1.1)}
        return {
            name: {"dim": dim, "n": n, "L": L, **drift} for name, dim, n, L in self.CONFIGS
        }

    def write_files(self, params, where):
        for name, p in params.items():
            _write_config(
                where / f"{name}.cfg",
                {
                    "model.kind": "diffusion",
                    "model.b": f"affine:{p['c0']},{-p['c1']}",
                    "model.r": "const:0",
                    "model.dim": p["dim"],
                    "grid.n": p["n"],
                    "grid.L": p["L"],
                    "skeleton.t0": 1,
                    "skeleton.substeps": 8,
                },
            )

    def operations(self, params, where, rpos):
        return [CliOp(name, "skeleton", where / f"{name}.cfg") for name in params]

    def check(self, params, ops, results, out):
        problems = []
        girsanov = {}
        for op in ops:
            p = params[op.name]
            report = _read_json(out / op.name / "report.json")
            A = ref.diffusion_generator(p["n"], p["L"], p["dim"], p["c0"], -p["c1"])
            found = ref.check_skeleton(report, ref.top_eigenvalue(A))
            problems += [f"{op.name}: {msg}" for msg in found]
            girsanov[op.name] = report["girsanov"]["discrepancy"]
        if {"1d-coarse", "1d-fine"} <= girsanov.keys():
            problems += ref.check_girsanov_refines(girsanov["1d-coarse"], girsanov["1d-fine"])
        return problems


class McKilledDiffusion(Workload):
    """`mc_feynman_kac` of the survival of dX = (1 - X) dt + dB from x = 1."""

    name = "mc-killed-diffusion"
    L, GRID_N = 12.0, 400
    HORIZONS = (1.0, 2.0, 3.0, 4.0)
    N_TRAJ = 20000
    #: At 0.002 the O(sqrt(substep)) killing bias of the Euler scheme moves
    #: the slope by about half a standard error at 20000 paths, well inside
    #: the check's 4.
    SUBSTEP = 0.002

    def parameters(self, rng):
        return {"mc_seed": rng.randrange(2**31), "n_traj": self.N_TRAJ, "substep": self.SUBSTEP}

    def operations(self, params, where, rpos):
        m = rpos.models
        model = m.DiffusionModel(
            b=m.vector_field("affine:1,-1", 1),
            r=m.scalar_field("const:0"),
            L=self.L,
            grid_n=self.GRID_N,
            t0=1.0,
        )
        return [
            McOp(f"t{T:g}", model, T, params["n_traj"], params["mc_seed"] + k, params["substep"])
            for k, T in enumerate(self.HORIZONS)
        ]

    def failed(self, op, result, out):
        return False

    def check(self, params, ops, results, out):
        lambda_ref = ref.top_eigenvalue(ref.diffusion_generator(self.GRID_N, self.L, 1, 1.0, -1.0))
        horizons = [op.horizon for op in ops]
        values = [r[0] for r in results]
        std_errors = [r[1] for r in results]
        return ref.check_survival(horizons, values, std_errors, lambda_ref)


WORKLOADS = {
    wl.name: wl
    for wl in (MapModelRun(), OperatorReciprocal(), DiffusionSkeleton(), McKilledDiffusion())
}
