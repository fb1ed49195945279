"""Batch front-end: load a model or raw operator, run an analysis pipeline,
emit machine-readable reports and plot-ready CSV data.

Every output format is decided here and nowhere else: the operator file
(``_operator_json``, ``load_operator_bundle``), the report.json layout of
each record type (``_LAYOUT``, walked by ``_plain``), the profile CSVs
(``_csv``) and the (G1)-(G4) table printed on stdout (``_g_table``). The
records themselves carry only their fields and verdicts.

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
    G1Result,
    G2Result,
    G3Result,
    G4Result,
    GReport,
    SeriesDivergenceError,
    SmallSetSearchError,
    check_condition_g,
)
from .core import (
    Measure,
    NonFiniteError,
    StateSpace,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
)
from .models import (
    ConfigError,
    DiffusionModel,
    GirsanovReport,
    GridCoverageError,
    HypothesisReport,
    McEstimate,
    PdsModel,
    StabilityError,
    build_diffusion_generator,
    girsanov_check,
    mc_feynman_kac,
    run_pds_analysis,
    scalar_field,
    vector_field,
)
from .reciprocal import ReciprocalCertificate, ReciprocalInput, certify
from .spectral import (
    ConvergenceReport,
    NonConvergingMassError,
    PowerIterationError,
    SkeletonReport,
    SpectralTriple,
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
    NonConvergingMassError,
)


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of ``path``; other bytes are a usage error naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UsageError(f"{what} {path} is not UTF-8 text: {err}") from err


def parse_config(path: Path) -> dict:
    """Flat key = value file; # starts a comment, blank lines ignored, and
    each key is given once."""
    cfg, first_line = {}, {}
    for lineno, raw in enumerate(_read_text(path, "config").splitlines(), 1):
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

    The operator layout, as ``_operator_json`` writes it, is {"points",
    "ref_weights", "kernel", "step_label"}; "step_label" defaults to 1.
    Optional extra fields: "psi1", "psi2", "psi" (value lists) and "K"
    (index list).
    """
    try:
        data = json.loads(_read_text(path, "operator JSON"))
    except json.JSONDecodeError as err:
        raise UsageError(f"operator JSON {path} does not parse: {err}") from err
    try:
        for key in ("points", "ref_weights", "kernel"):
            if key not in data:
                raise KeyError(f"operator JSON is missing field '{key}'")
        space = StateSpace(data["points"], data["ref_weights"])
        op = TransferOperator(space, data["kernel"], step_label=data.get("step_label", 1))
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
    report = {"triple": _plain(triple), "eq1": _plain(eq1), "eq2": _plain(eq2)}
    files = {"eq1.csv": _csv(eq1), "eq2.csv": _csv(eq2)}
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
    report_obj = check_condition_g(op, K, psi1, psi2, cfg["n1"], cfg["n_max"])
    report = {"g_report": _plain(report_obj)}
    code = 0 if report_obj.overall else 1
    return code, report, {}, _g_table(report_obj)


def cmd_reciprocal(cfg):
    bundle = load_operator_bundle(cfg["operator"])
    op = bundle["operator"]
    psi = bundle.get("psi", WeightedFunction.ones(op.space))
    triple = power_iterate(op, psi, tol=cfg["tol"])
    eq3 = measure_eq3(op, triple, psi, cfg["n_max"])
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
        "triple": _plain(triple),
        "certificate": _plain(cert),
        "eq3": _plain(eq3),
    }
    files = {"eq3.csv": _csv(eq3)}
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
        "theta2_seed": analysis.theta2_seed,
        "n0": analysis.n0,
        "K": _plain(analysis.K),
        "max_row_leak": float(np.max(analysis.build.row_leak)),
        "max_psi1_leak": float(np.max(analysis.build.psi1_leak)),
        "hypotheses": _plain(analysis.hypotheses),
        "g_report": _plain(analysis.g_report),
        "triple": _plain(analysis.triple),
        "eq1": _plain(analysis.eq1),
        "eq2": _plain(analysis.eq2),
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
            **_plain(est),
            "grid_value": grid_value,
            "z_score": float(z),
        }
    files = {
        "kernel.json": _operator_json(analysis.build.operator),
        "eq1.csv": _csv(analysis.eq1),
        "eq2.csv": _csv(analysis.eq2),
    }
    code = 0 if analysis.g_report.overall else 1
    text = _g_table(analysis.g_report) + f"\ntheta0 = {analysis.triple.theta0:.12g}"
    return code, report, files, text


def cmd_skeleton(cfg):
    model = diffusion_from_config(cfg)
    fam = build_diffusion_generator(model, n_substeps=cfg["skeleton.substeps"])
    sk = skeleton_analysis(fam.step, fam.at_t0, fam.n_substeps, fam.psi)
    gir = girsanov_check(fam)
    report = {"skeleton": _plain(sk), "girsanov": _plain(gir)}
    files = {"eq1cont.csv": _csv(sk.eq1), "eq2cont.csv": _csv(sk.eq2)}
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


#: The report.json layout: per record type, its keys in file order, each as
#: "key", or as "key=attribute" where the key reads another attribute.
_LAYOUT = {
    SpectralTriple: "theta0 eta nu_P right_residual left_residual iterations",
    ConvergenceReport: "target fitted_rate fitted_constant burn_in scale pass=passed",
    SkeletonReport: "lambda0 c_bar c_under t0 triple eq1cont=eq1 eq2cont=eq2 pass=passed",
    G1Result: "c1 nu n1 pass=passed",
    G2Result: "theta1 theta2 c2 inf_ratio sup_ratio psi2_scale pass=passed",
    G3Result: "c3 n_checked failed_at pass=passed",
    G4Result: "n4 pass=passed",
    GReport: "g1 g2 g3 g4 overall",
    ReciprocalCertificate: (
        "overall=passed stage m lambda=lam rho d c2 C_R n2 eigen_residual"
        " V0 psi1 K nu support g_report zeta diagnostics"
    ),
    HypothesisReport: "kind shell_radii shell_values diverging warnings details",
    McEstimate: "value std_error n_traj n_killed seed",
    GirsanovReport: "discrepancy a h t0",
}


def _plain(obj):
    """``obj`` as report.json holds it: a record of ``_LAYOUT`` as the dict
    of its keys, a function as its values, a measure as its density, a
    subset as its indices, an array as its ``tolist()``, a dict with str
    keys, and anything else as it is."""
    layout = _LAYOUT.get(type(obj))
    if layout is not None:
        entries = (entry.partition("=") for entry in layout.split())
        return {key: _plain(getattr(obj, attr or key)) for key, _, attr in entries}
    if isinstance(obj, WeightedFunction):
        return obj.values.tolist()
    if isinstance(obj, Measure):
        return obj.density.tolist()
    if isinstance(obj, SubsetMask):
        return obj.indices.tolist()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(key): _plain(value) for key, value in obj.items()}
    return obj


def _csv(report: ConvergenceReport) -> str:
    """A profile's CSV: n (an integer where it is one), the error and the
    fitted bound, floats with 17 significant digits."""
    lines = ["n,error,bound"]
    for n, error, bound in zip(report.index, report.errors, report.bound()):
        n_txt = f"{int(n)}" if float(n).is_integer() else f"{n:.17g}"
        lines.append(f"{n_txt},{error:.17g},{bound:.17g}")
    return "\n".join(lines) + "\n"


def _g_table(g: GReport) -> str:
    """The (G1)-(G4) verdicts, one line each with their constants, and the
    overall one."""
    n4 = [n for n in g.g4.n4.values() if n is not None]
    rows = [
        ("g1", g.g1.passed, f"c1={g.g1.c1:.6g} n1={g.g1.n1}"),
        ("g2", g.g2.passed, f"theta1={g.g2.theta1:.6g} theta2={g.g2.theta2:.6g} "
         f"c2={g.g2.c2:.6g} inf_ratio={g.g2.inf_ratio:.6g} sup_ratio={g.g2.sup_ratio:.6g}"),
        ("g3", g.g3.passed, f"c3={g.g3.c3:.6g} n={g.g3.n_checked}"),
        ("g4", g.g4.passed, f"n4_max={max(n4):.6g}" if n4 else "n4_max=-"),
    ]
    lines = [f"{name}  {'PASS' if ok else 'FAIL'}  {info}" for name, ok, info in rows]
    lines.append(f"overall  {'PASS' if g.overall else 'FAIL'}")
    return "\n".join(lines)


def _operator_json(op: TransferOperator) -> str:
    """The operator file ``load_operator_bundle`` reads, as ``json.dumps``
    with ``indent=2`` writes it with each array as its ``tolist()``, plus a
    final newline."""
    out = ["{"]
    for key, array in (
        ("points", op.space.points),
        ("ref_weights", op.space.ref_weights),
        ("kernel", op.kernel),
    ):
        out.append(f'\n  "{key}": ')
        _encode_floats(array, "\n  ", out)
        out.append(",")
    # One join: concatenating to the joined text would copy the whole file.
    out.append(f'\n  "step_label": {json.dumps(op.step_label)}\n}}\n')
    return "".join(out)


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
        envelope = {"schema": SCHEMA, "command": args.command, **report}
        outputs = {
            "report.json": json.dumps(envelope, indent=2) + "\n",
            **files,
            "run-metadata.json": json.dumps(metadata, indent=2) + "\n",
        }
        for name, content in outputs.items():
            with open(out_dir / name, "w", newline="\n") as fh:
                fh.write(content)
    except _USAGE_ERRORS as err:
        print(f"rpos: error: {err}", file=sys.stderr)
        return 2
    except _ANALYSIS_ERRORS as err:
        print(f"rpos: analysis failed: {err}", file=sys.stderr)
        return 1
    if not args.quiet and text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
