"""Benchmark of rpos verdicts, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One run makes the workload's inputs from the seed, then repeats whole
rounds of the same operations (a closed loop: one call after another, in
this process) until S seconds have passed and at least MIN_ROUNDS rounds
are done. It checks the first round's outputs against computations made
apart from rpos and every later round's outputs byte for byte against the
first. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See bench/README.md.
"""

import os

#: OpenBLAS otherwise starts one thread per core, and on shared cores they
#: stall (see README). Pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # two untraced and two traced, alternating
UNITS = {
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli.bytes_written": "bytes",
    "models.mc_path_steps_per_s": "1/s",
    "spectral.power_iterations": "count",
    "spectral.eq3_useful_step_ratio": "ratio",
}

# Set-up as a user pays it: a fresh interpreter imports rpos and writes the
# workload's configs and operator files. Timed inside the child.
_SETUP_PROBE = """
import sys, time
from pathlib import Path
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import rpos
import workloads
workloads.WORKLOADS[{name!r}].make_inputs({seed!r}, Path({where!r}))
print(time.perf_counter() - start)
"""


def measure_setup(name: str, seed: int, where: Path) -> float:
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = where / f"setup{k}"
        code = _SETUP_PROBE.format(
            src=str(SRC), bench=str(BENCH), name=name, seed=seed, where=str(probe_dir)
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(probe_dir)
    return statistics.median(times)


def digest(ops, results, out: Path) -> list:
    """What must repeat byte for byte: output files (not run-metadata.json) or values."""
    rows = []
    for op, result in zip(ops, results):
        op_dir = out / op.name
        if isinstance(result, Exception):
            rows.append((op.name, type(result).__name__))
        elif op_dir.is_dir():
            for path in sorted(op_dir.iterdir()):
                if path.name != "run-metadata.json":
                    rows.append((op.name, path.name, hashlib.sha256(path.read_bytes()).hexdigest()))
        else:
            rows.append((op.name, repr(result)))
    return rows


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def run_rounds(rpos, wl, ops, where: Path, seconds: float, tracer):
    out, first = where / "out", where / "first"
    rounds, first_results = [], None
    start = time.perf_counter()
    min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        mark = len(tracer.spans) if tracer else 0
        with tracer.installed() if traced else contextlib.nullcontext():
            results = []
            t0 = time.perf_counter()
            for op in ops:
                if traced:
                    tracer.op = f"round{len(rounds)}:{op.name}"
                try:
                    results.append(op.run(rpos, out))
                except Exception as err:  # an operation that crashes counts as failed
                    traceback.print_exc()
                    results.append(err)
            elapsed = time.perf_counter() - t0
        record = {
            "seconds": elapsed,
            "traced": traced,
            "failed": [
                isinstance(r, Exception) or wl.failed(op, r, out) for op, r in zip(ops, results)
            ],
            "digest": digest(ops, results, out),
            "bytes": bytes_written(out),
        }
        if traced:
            record["layers"] = tracer.round_metrics(mark)
        print(f"round {len(rounds)}: {elapsed:.4f} s{' traced' if traced else ''}", file=sys.stderr)
        if first_results is None:
            out.rename(first)
            first_results = results
        rounds.append(record)
    shutil.rmtree(out, ignore_errors=True)
    return rounds, first_results


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    where = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(where, ignore_errors=True)
    try:
        setup_s = None if trace else measure_setup(name, seed, where)
        import rpos
        import rpos.cli

        if Path(rpos.__file__).resolve().parent != SRC / "rpos":
            raise RuntimeError(f"rpos imported from {rpos.__file__}, not from {SRC}")
        params = wl.make_inputs(seed, where / "inputs")
        ops = wl.operations(params, where / "inputs", rpos)
        tracer = Tracer() if trace else None
        rounds, first_results = run_rounds(rpos, wl, ops, where, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = []
        for k, rec in enumerate(rounds[1:], 1):
            if rec["failed"] != rounds[0]["failed"] or rec["digest"] != rounds[0]["digest"]:
                problems.append(f"round {k} output differs from round 0")
        good = [i for i, failed in enumerate(rounds[0]["failed"]) if not failed]
        problems += wl.check(
            params, [ops[i] for i in good], [first_results[i] for i in good], where / "first"
        )
    finally:
        shutil.rmtree(where, ignore_errors=True)

    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
        }
        metrics["cli.bytes_written"] = statistics.median(r["bytes"] for r in rounds)
        metrics["trace.overhead_s"] = statistics.median(
            r["seconds"] for r in traced
        ) - statistics.median(untraced)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    else:
        metrics = {
            "verdict_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(sum(r["failed"]) for r in rounds),
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{name} ended with exit code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted = {result['attempted']}, failed = {result['failed']}, "
              f"correct = {result['correct']}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rpos" / "__init__.py").is_file():
        print(f"bench: no rpos sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
