"""Batch front-end: load a model or raw operator, run an analysis pipeline,
emit machine-readable reports and plot-ready CSV data.

Exit codes: 0 when the analysis passes, 1 when it runs but the answer is
negative (a legitimate result, reported in the output files), 2 on usage or
I/O errors. All randomness flows from the single configured seed; reports
and CSVs are byte-identical across reruns of the same config (wall-clock
data is isolated in run-metadata.json).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .condition_g import (
    SeriesDivergenceError,
    SmallSetSearchError,
    check_condition_g,
)
from .core import (
    Measure,
    NonFiniteError,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
)
from .models import (
    ConfigError,
    DiffusionModel,
    GridCoverageError,
    PdsModel,
    StabilityError,
    build_diffusion_generator,
    girsanov_check,
    mc_feynman_kac,
    run_pds_analysis,
    scalar_field,
    vector_field,
)
from .reciprocal import ReciprocalInput, ZetaConditionError, certify
from .spectral import (
    NonConvergingMassError,
    PowerIterationError,
    SemigroupConsistencyError,
    half_probe,
    measure_eq1_eq2,
    measure_eq3,
    power_iterate,
    skeleton_analysis,
)

SCHEMA = "rpos/1"


class UsageError(Exception):
    """Bad invocation, unreadable input, or malformed configuration."""


_USAGE_ERRORS = (
    UsageError,
    ConfigError,
    GridCoverageError,
    StabilityError,
    OSError,
    json.JSONDecodeError,
)
_ANALYSIS_ERRORS = (
    NonFiniteError,
    PowerIterationError,
    SeriesDivergenceError,
    SmallSetSearchError,
    ZetaConditionError,
    SemigroupConsistencyError,
    NonConvergingMassError,
)


def parse_config(path: Path) -> dict:
    """Flat key = value file; # starts a comment, blank lines ignored."""
    cfg = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _cfg(cfg, key, default=None, cast=str, required=False):
    if key not in cfg:
        if required:
            raise UsageError(f"config is missing the required key '{key}'")
        return default
    try:
        return cast(cfg[key])
    except ValueError as err:
        raise UsageError(f"config key '{key}' has a bad value {cfg[key]!r}") from err


def _int(cfg, key, default, least, override=None):
    """The integer ``override`` (a flag), else config ``key``; at least ``least``."""
    value = override if override is not None else _cfg(cfg, key, default, int)
    if value < least:
        raise UsageError(f"{key} must be at least {least}, got {value}")
    return value


def _tol(cfg, args, default):
    """The tolerance from --tol, else config key tol; positive and finite."""
    tol = args.tol if args.tol is not None else _cfg(cfg, "tol", default, float)
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"tol must be a positive finite number, got {tol}")
    return tol


def load_operator_bundle(path: Path):
    """Operator JSON plus optional weight/subset companions.

    The operator layout is {"points", "ref_weights", "kernel", "step_label"};
    optional extra fields: "psi1", "psi2", "psi" (value lists) and "K" (index
    list).
    """
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise UsageError(f"operator JSON {path} does not parse: {err}") from err
    try:
        op = TransferOperator.from_dict(data)
    except (KeyError, ValueError, TypeError) as err:
        raise UsageError(f"malformed operator JSON {path}: {err}") from err
    bundle = {"operator": op}
    for name in ("psi1", "psi2", "psi"):
        if name in data:
            try:
                bundle[name] = WeightedFunction(op.space, data[name])
            except (ValueError, TypeError) as err:
                raise UsageError(f"malformed operator JSON field '{name}': {err}") from err
            values = bundle[name].values
            if not np.all(np.isfinite(values)):
                raise UsageError(f"operator JSON field '{name}' must be finite")
            if name == "psi2" and not np.all(values >= 0.0):
                raise UsageError("operator JSON field 'psi2' must be nonnegative")
            if name != "psi2" and not np.all(values > 0.0):
                raise UsageError(f"operator JSON field '{name}' must be positive")
    if "K" in data:
        bundle["K"] = _small_set(op.space, data["K"], "operator JSON field 'K'")
    return bundle


def _small_set(space, tokens, source: str) -> SubsetMask:
    """The subset named by a nonempty list of state indices, each in 0..N-1."""
    try:
        idx = [int(str(tok).strip()) for tok in tokens]
    except (TypeError, ValueError) as err:
        raise UsageError(f"{source} must list integer state indices: {err}") from err
    if not idx:
        raise UsageError(f"{source} names no state")
    bad = [i for i in idx if not 0 <= i < space.size]
    if bad:
        raise UsageError(f"{source} has indices outside 0..{space.size - 1}: {bad}")
    return SubsetMask.from_indices(space, idx)


def _resolve(cfg, key, config_path):
    rel = _cfg(cfg, key, required=True)
    path = Path(rel)
    return path if path.is_absolute() else config_path.parent / path


def cmd_spectral(cfg, args, config_path):
    bundle = load_operator_bundle(_resolve(cfg, "operator", config_path))
    op = bundle["operator"]
    psi1 = bundle.get("psi1", WeightedFunction.ones(op.space))
    psi2 = bundle.get("psi2", psi1)
    if psi2.values[0] <= 0.0:
        raise UsageError("psi2 must be positive at state 0, where the eq1 probe starts")
    tol = _tol(cfg, args, 1e-13)
    n_max = _int(cfg, "n_max", 60, 1, args.n_max)
    triple = power_iterate(op, psi1, tol=tol)
    mu, f = Measure.point_mass(op.space, 0), half_probe(psi1)
    eq1, eq2 = measure_eq1_eq2(op, triple, psi1, psi2, mu, f, n_max)
    report = {
        "schema": SCHEMA,
        "command": "spectral",
        "triple": triple.to_dict(),
        "eq1": eq1.to_dict(),
        "eq2": eq2.to_dict(),
    }
    files = {"eq1.csv": eq1.to_csv(), "eq2.csv": eq2.to_csv()}
    text = f"theta0 = {triple.theta0:.12g}  iterations = {triple.iterations}"
    return 0, report, files, text


def cmd_check_g(cfg, args, config_path):
    bundle = load_operator_bundle(_resolve(cfg, "operator", config_path))
    op = bundle["operator"]
    psi1 = bundle.get("psi1", WeightedFunction.ones(op.space))
    psi2 = bundle.get("psi2", psi1)
    if "k.indices" in cfg:
        tokens = [tok for tok in cfg["k.indices"].split(",") if tok.strip()]
        K = _small_set(op.space, tokens, "config key 'k.indices'")
    else:
        K = bundle.get("K", SubsetMask.full(op.space))
    n1 = _int(cfg, "n1", 1, 1)
    n_max = _int(cfg, "n_max", 100, 1, args.n_max)
    report_obj = check_condition_g(op, K, psi1, psi2, n1=n1, n3_max=n_max, n4_max=n_max)
    report = {"schema": SCHEMA, "command": "check-g", "g_report": report_obj.to_dict()}
    code = 0 if report_obj.overall else 1
    return code, report, {}, report_obj.render_table()


def cmd_reciprocal(cfg, args, config_path):
    bundle = load_operator_bundle(_resolve(cfg, "operator", config_path))
    op = bundle["operator"]
    psi = bundle.get("psi", WeightedFunction.ones(op.space))
    tol = _tol(cfg, args, 1e-12)
    n_max = _int(cfg, "n_max", 160, 1, args.n_max)
    triple = power_iterate(op, psi, tol=tol)
    eq3 = measure_eq3(op, triple.theta0, triple.eta, triple.nu_P, psi, n_max)
    inp = ReciprocalInput(
        P=op,
        psi=psi,
        eta=triple.eta,
        theta0=triple.theta0,
        zeta=eq3.errors,
        nu_P=triple.nu_P,
    )
    cert = certify(inp)
    report = {
        "schema": SCHEMA,
        "command": "reciprocal",
        "triple": triple.to_dict(),
        "certificate": cert.to_dict(),
        "eq3": eq3.to_dict(),
    }
    files = {"eq3.csv": eq3.to_csv()}
    text = f"certificate {'PASS' if cert.passed else 'FAIL'} (stage: {cert.stage})"
    return (0 if cert.passed else 1), report, files, text


def pds_from_config(cfg):
    dim = _cfg(cfg, "model.dim", 1, int)
    L = _cfg(cfg, "grid.L", required=True, cast=float)
    domain = _cfg(cfg, "model.domain", "all")
    kwargs = {}
    if domain == "box":
        kwargs["domain_lo"] = -L
        kwargs["domain_hi"] = L
    elif domain != "all":
        raise UsageError(f"model.domain must be 'all' or 'box', got {domain!r}")
    kwargs.update(
        F=vector_field(_cfg(cfg, "model.F", required=True), dim),
        G=scalar_field(_cfg(cfg, "model.G", "const:1")),
        noise_sd=_cfg(cfg, "noise.sd", 1.0, float),
        grid_n=_cfg(cfg, "grid.n", required=True, cast=int),
        grid_lo=-L,
        grid_hi=L,
        p=_cfg(cfg, "model.p", required=True, cast=float),
        a=_cfg(cfg, "model.a", required=True, cast=float),
        dim=dim,
        f_label=cfg.get("model.F", ""),
        g_label=cfg.get("model.G", "const:1"),
    )
    try:
        return PdsModel(**kwargs)
    except ValueError as err:
        raise UsageError(f"bad map model: {err}") from err


def diffusion_from_config(cfg):
    dim = _cfg(cfg, "model.dim", 1, int)
    kwargs = dict(
        b=vector_field(_cfg(cfg, "model.b", required=True), dim),
        r=scalar_field(_cfg(cfg, "model.r", "const:0")),
        L=_cfg(cfg, "grid.L", required=True, cast=float),
        grid_n=_cfg(cfg, "grid.n", required=True, cast=int),
        t0=_cfg(cfg, "skeleton.t0", 1.0, float),
        dim=dim,
        b_label=cfg.get("model.b", ""),
        r_label=cfg.get("model.r", "const:0"),
    )
    try:
        return DiffusionModel(**kwargs)
    except ValueError as err:
        raise UsageError(f"bad diffusion model: {err}") from err


def cmd_model_run(cfg, args, config_path):
    kind = _cfg(cfg, "model.kind", required=True)
    if kind != "pds":
        raise UsageError(
            f"model-run supports model.kind = pds (got {kind!r}); "
            "use the skeleton command for diffusion models"
        )
    model = pds_from_config(cfg)
    n_max = _int(cfg, "n_max", 100, 1, args.n_max)
    eq_n_max = _int(cfg, "report.n_max", 40, 0)
    n_traj = _cfg(cfg, "mc.n_traj", 0, int)
    if n_traj and n_traj < 100:
        raise UsageError(f"mc.n_traj must be 0 or at least 100, got {n_traj}")
    seed = args.seed if args.seed is not None else _cfg(cfg, "mc.seed", 0, int)
    if n_traj and not 0 <= seed < 2**128:
        raise UsageError(f"the Monte Carlo seed must lie in 0..2**128 - 1, got {seed}")
    analysis = run_pds_analysis(model, n_g=n_max, eq_n_max=eq_n_max)
    report = {
        "schema": SCHEMA,
        "command": "model-run",
        "theta2_seed": analysis.theta2_seed,
        "n0": analysis.n0,
        "K": analysis.K.indices.tolist(),
        "max_row_leak": float(np.max(analysis.build.row_leak)),
        "max_psi1_leak": float(np.max(analysis.build.psi1_leak)),
        "hypotheses": analysis.hypotheses.to_dict(),
        "g_report": analysis.g_report.to_dict(),
        "triple": analysis.triple.to_dict(),
        "eq1": analysis.eq1.to_dict(),
        "eq2": analysis.eq2.to_dict(),
    }
    if n_traj:
        op, psi1 = analysis.build.operator, analysis.build.psi1
        i0 = int(np.argmin(np.linalg.norm(op.space.points, axis=1)))
        x0 = op.space.points[i0]
        est = mc_feynman_kac(
            model,
            x0,
            1,
            lambda y: np.exp(model.a * np.linalg.norm(y, axis=1)),
            n_traj,
            seed,
        )
        grid_value = float((op.kernel @ psi1.values)[i0])
        z = (est.value - grid_value) / est.std_error if est.std_error > 0 else 0.0
        report["mc_probe"] = {
            **est.to_dict(),
            "grid_value": grid_value,
            "z_score": float(z),
        }
    files = {
        "kernel.json": _dumps(analysis.build.operator.to_dict()),
        "eq1.csv": analysis.eq1.to_csv(),
        "eq2.csv": analysis.eq2.to_csv(),
    }
    code = 0 if analysis.g_report.overall else 1
    text = analysis.g_report.render_table() + (
        f"\ntheta0 = {analysis.triple.theta0:.12g}"
    )
    return code, report, files, text


def cmd_skeleton(cfg, args, config_path):
    kind = _cfg(cfg, "model.kind", required=True)
    if kind != "diffusion":
        raise UsageError(f"skeleton supports model.kind = diffusion (got {kind!r})")
    model = diffusion_from_config(cfg)
    n_substeps = _int(cfg, "skeleton.substeps", 8, 1)
    family = build_diffusion_generator(model, n_substeps=n_substeps)
    sk = skeleton_analysis(family.family, family.psi)
    gir = girsanov_check(family)
    report = {
        "schema": SCHEMA,
        "command": "skeleton",
        "skeleton": sk.to_dict(),
        "girsanov": {
            "discrepancy": gir.discrepancy,
            "a": gir.a,
            "h": gir.h,
            "t0": gir.t0,
        },
    }
    files = {"eq1cont.csv": sk.eq1.to_csv(), "eq2cont.csv": sk.eq2.to_csv()}
    code = 0 if sk.passed else 1
    text = (
        f"lambda0 = {sk.lambda0:.9g}  c_bar = {sk.c_bar:.6g}  "
        f"c_under = {sk.c_under:.6g}  girsanov = {gir.discrepancy:.3e}"
    )
    return code, report, files, text


_COMMANDS = {
    "spectral": cmd_spectral,
    "check-g": cmd_check_g,
    "reciprocal": cmd_reciprocal,
    "model-run": cmd_model_run,
    "skeleton": cmd_skeleton,
}


def _dumps(obj) -> str:
    """The JSON text of obj as ``json.dumps`` lays it out with ``indent=2``,
    byte for byte, plus a final newline, at C-encoder speed.

    With ``indent`` set, json encodes in pure Python. Here only dicts and
    lists are walked in Python: a list of ints and floats is one C-encoder
    call, re-indented at its ``", "`` separators, which no number contains;
    every other leaf and every key goes through ``json.dumps`` itself.
    """
    out = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_NUMBER_TYPES = {int, float}


def _encode(obj, newline, out):
    """Append the indented encoding of obj; newline is "\\n" plus its indent."""
    inner = newline + "  "
    if isinstance(obj, dict):
        # json's own key rules: int, float, bool and None keys become strings
        # and any other type raises TypeError. '{"key": 0}'[1:-4] is '"key"'.
        pairs = [(json.dumps({k: 0})[1:-4] + ": ", v) for k, v in obj.items()]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) <= _NUMBER_TYPES:
            flat = json.dumps(obj)[1:-1].replace(", ", "," + inner)
            out.append("[" + inner + flat + newline + "]")
            return
        pairs = [("", v) for v in obj]
        opening, closing = "[", "]"
    else:
        out.append(json.dumps(obj))
        return
    if not pairs:
        out.append(opening + closing)
        return
    sep = opening + inner
    for key, value in pairs:
        out.append(sep + key)
        _encode(value, inner, out)
        sep = "," + inner
    out.append(newline + closing)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpos",
        description="Analyze positive transfer operators: dominant eigen "
        "triple, drift-and-mixing verification, reverse certification, and "
        "the built-in application models.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--n-max", type=int, default=None, dest="n_max")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config_path = Path(args.config)
        cfg = parse_config(config_path)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        code, report, files, text = _COMMANDS[args.command](cfg, args, config_path)
    except _USAGE_ERRORS as err:
        print(f"rpos: error: {err}", file=sys.stderr)
        return 2
    except _ANALYSIS_ERRORS as err:
        print(f"rpos: analysis failed: {err}", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else _cfg(cfg, "mc.seed", None, int)
    metadata = {
        "schema": SCHEMA,
        "command": args.command,
        "config_path": str(config_path),
        "config": cfg,
        "seed": seed,
        "overrides": {
            "tol": args.tol,
            "n_max": args.n_max,
            "seed": args.seed,
        },
        "versions": {
            "rpos": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "elapsed_s": time.time() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    outputs = {"report.json": _dumps(report), **files, "run-metadata.json": _dumps(metadata)}
    for name, content in outputs.items():
        with open(out_dir / name, "w", newline="\n") as fh:
            fh.write(content)
    if not args.quiet and text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
