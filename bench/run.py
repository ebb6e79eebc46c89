"""Benchmark of chcsim: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The workloads, metrics and checks are described in bench/README.md.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5  # fresh interpreters timed per run, after one untimed warm-up
MIN_ROUNDS = 2
COUNTS = tracing.COUNT_METRICS + ("runner.bytes_written",)

# what every chc-sim call pays before its first step, in a fresh interpreter
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import chcsim.cli
t1 = time.perf_counter()
chcsim.config.parse_config(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in 0 .. 2**64 - 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(config_path: Path) -> list[tuple[float, float]]:
    """(import, parse) seconds of fresh interpreters; the first is a warm-up."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
            env=dict(os.environ, **BLAS_ENV), cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        import_s, parse_s = map(float, proc.stdout.split())
        samples.append((import_s, parse_s))
    return samples[1:]


def artifact_digest(directory: Path) -> tuple[str, int]:
    """Hash and byte count of a run's artifacts.  The manifest carries
    wall-clock fields, so it is left out of both."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(directory.iterdir()):
        if path.name == "manifest.json":
            continue
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def run_once(runner, cfg, wl, out_dir: Path, tracer) -> dict:
    """One operation: a whole experiment run, then the benchmark's checks.

    It fails if the run raises or if a benchmark check fails.  The run's own
    in-run verdicts are recorded but not counted (see the README)."""
    op = {"traced": tracer is not None, "error": None, "checks": [], "in_run": {}}
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        manifest = runner.run(cfg, override_out=str(out_dir))
    except Exception as exc:  # an experiment that raises is a failed operation
        op["error"] = f"{type(exc).__name__}: {exc}"
        return op
    finally:
        op["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    op["in_run"] = dict(manifest.checks)
    directory = Path(manifest.directory)
    op["checks"] = wl.check(directory)
    op["digest"], op["bytes"] = artifact_digest(directory)
    shutil.rmtree(directory)
    if tracer is not None:
        op["layers"] = dict(tracer.snapshot(), **{"runner.bytes_written": op["bytes"]})
    return op


def count_problems(wl, traced_ops) -> list[str]:
    """Exact-count checks of a traced run: the counts repeat across operations,
    match the workload's shape, and show no retries or failed rows."""
    first = traced_ops[0]["layers"]
    bad = [f"{n} differs between traced runs" for n in COUNTS
           if any(op["layers"][n] != first[n] for op in traced_ops[1:])]
    expected = {
        "noise.normals": wl.replicas * wl.steps * 2,  # two noisy modes
        "noise.streams": wl.replicas,
        "dynamics.row_steps": wl.rows * wl.steps,
        "dynamics.retries": 0,
        "dynamics.failed_rows": 0,
    }
    if wl.kind == "lintest":  # no grid: transforms and nonlinearity never run
        expected.update(dict.fromkeys(
            ("spectral.synthesize_rows", "spectral.analyze_rows", "potential.nonlinearity_points"), 0))
    return bad + [f"{n} = {first[n]}, expected {v}" for n, v in expected.items() if first[n] != v]


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def summarize(trace: bool, wl, setup, ops) -> tuple[dict, list[str]]:
    """The printed result and the problems that make it incorrect."""
    for op in ops:
        op["failed"] = bool(op["error"] or op["checks"])
    ok = [op for op in ops if not op["failed"]]
    problems = []
    if len({op["digest"] for op in ok}) > 1:
        problems.append("artifacts differ between runs of one config")
    traced_ok = [op for op in ok if op["traced"]]
    if traced_ok:
        problems += count_problems(wl, traced_ok)

    run_s = statistics.median(op["run_s"] for op in ops if not op["traced"])
    if trace:
        values = {n: statistics.median(op["layers"][n] for op in traced_ok) if traced_ok else 0.0
                  for n in tracing.TIME_METRICS}
        values.update({n: traced_ok[0]["layers"][n] if traced_ok else 0 for n in COUNTS})
        values["cli.import_s"] = statistics.median(s[0] for s in setup)
        values["config.parse_s"] = statistics.median(s[1] for s in setup)
        values["trace.run_s"] = statistics.median(op["run_s"] for op in ops if op["traced"])
        values["trace.overhead_s"] = values["trace.run_s"] - run_s
        metrics = {n: {"value": v, "unit": unit(n)} for n, v in sorted(values.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(a + b for a, b in setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": metrics,
    }
    return result, problems


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    import workloads

    args = parse_args(argv, tuple(workloads.BUILDERS))
    if not (SRC / "chcsim" / "__init__.py").is_file():
        print(f"error: no chcsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.BUILDERS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        config_path = tmp / f"{wl.name}.cfg"
        config_path.write_text(wl.config_text, encoding="utf-8")
        setup = measure_setup(config_path)

        from chcsim import runner
        from chcsim.config import parse_config

        cfg = parse_config(str(config_path))
        tracer = tracing.Tracer()
        # a round is one untraced operation, plus one traced operation with --trace 1
        modes = (None, tracer) if args.trace else (None,)
        ops = []
        start = time.perf_counter()
        while len(ops) < MIN_ROUNDS * len(modes) or time.perf_counter() - start < args.seconds:
            ops += [run_once(runner, cfg, wl, tmp / "runs", t) for t in modes]

    result, problems = summarize(bool(args.trace), wl, setup, ops)
    for op in ops:
        if op["failed"]:
            print(f"failed operation: {op['error'] or '; '.join(op['checks'])}", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  config=wl.config_text, machine=machine(), setup=setup, problems=problems,
                  operations=[{k: v for k, v in op.items() if k != "digest"} for op in ops])
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
