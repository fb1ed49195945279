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
import difflib
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
from .reciprocal import ReciprocalInput, certify
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
    SemigroupConsistencyError,
    NonConvergingMassError,
)


def parse_config(path: Path) -> dict:
    """Flat key = value file; # starts a comment, blank lines ignored, and
    each key is given once."""
    cfg, first_line = {}, {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first_line:
            raise UsageError(
                f"{path}:{lineno}: config key '{key}' is given twice "
                f"(lines {first_line[key]} and {lineno})"
            )
        first_line[key] = lineno
        cfg[key] = value
    return cfg


#: Per command, every config key it reads: (default, type, range test or
#: None, the type and range in words). A key whose default is None must be set.
_TEXT = (str, None, "text")
_INT = (int, None, "an integer")
_REAL = (float, math.isfinite, "a finite number")
_COUNT = (int, lambda n: n >= 1, "an integer >= 1")
_TOL = (float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_OPERATOR = {"operator": (None, Path, None, "a path")}
_GRID = {"model.dim": (1, *_INT), "grid.n": (None, *_INT), "grid.L": (None, *_REAL)}
_KEYS = {
    "spectral": {**_OPERATOR, "n_max": (60, *_COUNT), "tol": (1e-13, *_TOL)},
    "check-g": {**_OPERATOR, "n1": (1, *_COUNT), "n_max": (100, *_COUNT),
                "k.indices": ("", str, bool, "a nonempty list of state indices")},
    "reciprocal": {**_OPERATOR, "n_max": (160, *_COUNT), "tol": (1e-12, *_TOL)},
    "model-run": {
        "model.kind": (None, str, lambda k: k == "pds", "pds (skeleton runs diffusion models)"),
        **_GRID,
        "model.domain": ("all", str, lambda d: d in ("all", "box"), "'all' or 'box'"),
        "model.F": (None, *_TEXT),
        "model.G": ("const:1", *_TEXT),
        "noise.sd": (1.0, *_REAL),
        "model.p": (None, *_REAL),
        "model.a": (None, *_REAL),
        "n_max": (100, *_COUNT),
        "report.n_max": (40, int, lambda n: n >= 0, "an integer >= 0"),
        "mc.n_traj": (0, int, lambda n: n == 0 or n >= 100, "0 or an integer >= 100"),
        "mc.seed": (0, int, lambda s: 0 <= s < 2**128, "an integer in 0..2**128 - 1"),
    },
    "skeleton": {
        "model.kind": (None, str, lambda k: k == "diffusion", "diffusion"),
        **_GRID,
        "model.b": (None, *_TEXT),
        "model.r": ("const:0", *_TEXT),
        "skeleton.t0": (1.0, *_REAL),
        "skeleton.substeps": (8, *_COUNT),
    },
}


def read_config(command, cfg, config_path):
    """Every key ``command`` declares, typed, range-checked and defaulted; a
    path relative to the config file. A key no command declares is an error
    naming the nearest key of ``command``; one of another command is unread.
    """
    keys = _KEYS[command]
    for key in cfg:
        if all(key not in table for table in _KEYS.values()):
            near = difflib.get_close_matches(key, keys, 1, 0.0)[0]
            raise UsageError(f"unknown config key '{key}' (did you mean '{near}'?)")
    values = {}
    for key, (default, cast, test, words) in keys.items():
        if key not in cfg:
            if default is None:
                raise UsageError(f"config is missing the required key '{key}'")
            values[key] = default
            continue
        try:
            values[key] = config_path.parent / cfg[key] if cast is Path else cast(cfg[key])
            valid = test is None or test(values[key])
        except ValueError:
            valid = False
        if not valid:
            raise UsageError(f"config key '{key}' must be {words}, got {cfg[key]!r}")
    return values


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
    except (KeyError, ValueError, TypeError, NonFiniteError) as err:
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


def cmd_spectral(cfg):
    bundle = load_operator_bundle(cfg["operator"])
    op = bundle["operator"]
    psi1 = bundle.get("psi1", WeightedFunction.ones(op.space))
    psi2 = bundle.get("psi2", psi1)
    if psi2.values[0] <= 0.0:
        raise UsageError("psi2 must be positive at state 0, where the eq1 probe starts")
    triple = power_iterate(op, psi1, tol=cfg["tol"])
    mu, f = Measure.point_mass(op.space, 0), half_probe(psi1)
    eq1, eq2 = measure_eq1_eq2(op, triple, psi1, psi2, mu, f, cfg["n_max"])
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


def cmd_check_g(cfg):
    bundle = load_operator_bundle(cfg["operator"])
    op = bundle["operator"]
    psi1 = bundle.get("psi1", WeightedFunction.ones(op.space))
    psi2 = bundle.get("psi2", psi1)
    if cfg["k.indices"]:
        tokens = [tok for tok in cfg["k.indices"].split(",") if tok.strip()]
        K = _small_set(op.space, tokens, "config key 'k.indices'")
    else:
        K = bundle.get("K", SubsetMask.full(op.space))
    report_obj = check_condition_g(op, K, psi1, psi2, cfg["n1"], cfg["n_max"], cfg["n_max"])
    report = {"schema": SCHEMA, "command": "check-g", "g_report": report_obj.to_dict()}
    code = 0 if report_obj.overall else 1
    return code, report, {}, report_obj.render_table()


def cmd_reciprocal(cfg):
    bundle = load_operator_bundle(cfg["operator"])
    op = bundle["operator"]
    psi = bundle.get("psi", WeightedFunction.ones(op.space))
    triple = power_iterate(op, psi, tol=cfg["tol"])
    eq3 = measure_eq3(op, triple.theta0, triple.eta, triple.nu_P, psi, cfg["n_max"])
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
    """The map model of a model-run config as ``read_config`` returns it."""
    L, dim = cfg["grid.L"], cfg["model.dim"]
    box = {"domain_lo": -L, "domain_hi": L} if cfg["model.domain"] == "box" else {}
    return PdsModel(
        F=vector_field(cfg["model.F"], dim),
        G=scalar_field(cfg["model.G"]),
        noise_sd=cfg["noise.sd"],
        grid_n=cfg["grid.n"],
        grid_lo=-L,
        grid_hi=L,
        p=cfg["model.p"],
        a=cfg["model.a"],
        dim=dim,
        **box,
    )


def diffusion_from_config(cfg):
    """The killed diffusion of a skeleton config as ``read_config`` returns it."""
    return DiffusionModel(
        b=vector_field(cfg["model.b"], cfg["model.dim"]),
        r=scalar_field(cfg["model.r"]),
        L=cfg["grid.L"],
        grid_n=cfg["grid.n"],
        t0=cfg["skeleton.t0"],
        dim=cfg["model.dim"],
    )


def cmd_model_run(cfg):
    model = pds_from_config(cfg)
    analysis = run_pds_analysis(model, n_g=cfg["n_max"], eq_n_max=cfg["report.n_max"])
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
    if cfg["mc.n_traj"]:
        op, psi1 = analysis.build.operator, analysis.build.psi1
        i0 = int(np.argmin(np.linalg.norm(op.space.points, axis=1)))
        x0 = op.space.points[i0]
        est = mc_feynman_kac(
            model,
            x0,
            1,
            lambda y: np.exp(model.a * np.linalg.norm(y, axis=1)),
            cfg["mc.n_traj"],
            cfg["mc.seed"],
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


def cmd_skeleton(cfg):
    model = diffusion_from_config(cfg)
    family = build_diffusion_generator(model, n_substeps=cfg["skeleton.substeps"])
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
    byte for byte, plus a final newline, at C-encoder speed. A float64
    array of 1 or 2 dimensions is written as its ``tolist()`` would be.

    With ``indent`` set, json encodes in pure Python. Here only dicts and
    lists are walked in Python: a list of ints and floats is one C-encoder
    call, re-indented at its ``", "`` separators, which no number contains;
    a float64 array formats each distinct entry of a block of rows once
    (``_encode_floats``); every other leaf and every key goes through
    ``json.dumps`` itself.
    """
    out = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_NUMBER_TYPES = {int, float}


def _encode(obj, newline, out):
    """Append the indented encoding of obj; newline is "\\n" plus its indent."""
    inner = newline + "  "
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        if obj.size:
            _encode_floats(obj, newline, out)
            return
        obj = obj.tolist()  # [] or a list of []
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


#: Rows that share one token table in ``_encode_floats``, and the share of
#: distinct entries above which a block is written as lists instead. On
#: 800 x 800 kernels (medians, 2 shared vCPUs), the lists took 1.13 s for
#: the slope-0.25 map kernel (1.6 % distinct) and 0.84 s for a random one;
#: one table for the whole matrix took 0.14 s and 1.18 s, and tables of 64
#: rows 0.24 s and 0.96 s. Writing the mostly distinct blocks as lists
#: brought the random kernel and the slope-0.2467 one (85 % distinct) back
#: to the lists' time, with 20 MB less peak memory.
_BLOCK_ROWS = 64
_TABLE_SHARE = 0.75


def _encode_floats(array, newline, out):
    """Append the indented encoding of a nonempty float64 array of 1 or 2
    dimensions, one string per row.

    Per block of ``_BLOCK_ROWS`` rows, ``np.unique`` of the int64 bit view
    gives the distinct entries and each entry's index among them. One
    ``json.dumps`` of the distinct entries, split at ``", "``, is the token
    table, so NaN, Infinity, -0.0, 1e+16 and 5e-324 read as json writes
    them; the bit view keeps -0.0 apart from 0.0. Each row gathers its
    tokens by index. A block whose entries are mostly distinct (counted on
    a sort, which costs less than ``np.unique``) would save few reprs for a
    gather per entry, so its rows are written as lists.
    """
    rows = np.ascontiguousarray(array).reshape(-1, array.shape[-1])
    line = newline + "  " if array.ndim == 2 else newline  # a row's newline
    item = "," + line + "  "
    lead = "[" + line if array.ndim == 2 else ""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        bits = block.view(np.int64)
        ordered = np.sort(bits, axis=None)
        if np.count_nonzero(ordered[1:] != ordered[:-1]) >= _TABLE_SHARE * block.size:
            texts = [json.dumps(row)[1:-1].replace(", ", item) for row in block.tolist()]
        else:
            distinct, index = np.unique(bits, return_inverse=True)
            tokens = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
            texts = [item.join([tokens[i] for i in row])
                     for row in index.reshape(block.shape).tolist()]
        for text in texts:
            out.append(lead + "[" + line + "  " + text + line + "]")
            lead = "," + line
    if array.ndim == 2:
        out.append(newline + "]")


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
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config_path = Path(args.config)
        cfg = parse_config(config_path)
        values = read_config(args.command, cfg, config_path)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        code, report, files, text = _COMMANDS[args.command](values)
    except _USAGE_ERRORS as err:
        print(f"rpos: error: {err}", file=sys.stderr)
        return 2
    except _ANALYSIS_ERRORS as err:
        print(f"rpos: analysis failed: {err}", file=sys.stderr)
        return 1
    metadata = {
        "schema": SCHEMA,
        "command": args.command,
        "config_path": str(config_path),
        "config": cfg,
        "keys_read": [key for key in cfg if key in values],
        "keys_unread": [key for key in cfg if key not in values],
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
