"""Benchmark of the profile_shift package: one workload per run, or all of them.

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One process, one closed-loop client: operations run back to back in-process
for at least ``--seconds``, then every operation's outputs are checked
against ``reference`` (outside the timed region).  ``--trace 0`` reports the
end-to-end metrics, with times scaled by the machine's speed during the run
(``calibrate``); ``--trace 1`` reports the per-layer ones, from operations
that alternate untraced and traced.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--all`` runs every workload untraced and then traced, each in its own
process, and prints every metric by name and unit.
"""

import os

# BLAS and OpenMP read these once, when numpy loads; the package itself reads
# PROFILE_SHIFT_THREADS only in cli.main, which in-process calls bypass.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# Every run makes at least two operations, so that the traced run has an
# untraced and a traced one.
MIN_OPS = 2
PROBE_TIMEOUT_S = 60

# Metric names and units come from BENCHMARK.json, beside perfbench/.
_DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in _DEFINITION["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}
# Counts come from the first traced operation, whose inputs depend on the
# seed alone; times are medians over every traced operation.
COUNT_METRICS = {name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes", "ratio")}


@dataclass
class Record:
    """One operation of a run."""

    inputs: dict
    result: object
    error: str | None
    seconds: float
    traced: bool


def load_package():
    """Put the checkout's src/ first on the path and import the package from it."""
    package = SRC / "profile_shift"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import profile_shift

    if Path(profile_shift.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported profile_shift from {profile_shift.__file__}, not {package}")
    return profile_shift


def setup_probe(workload: str, seed: int) -> None:
    """Fresh interpreter to ready: import the package and build one operation's inputs."""
    load_package()
    import workloads

    workdir = OUT / f"probe-{workload}-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload](seed, workdir).inputs(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh-interpreter set-ups."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool = False) -> dict:
    """One run: set-up probes (untraced only), warm-up, timed loop, checks.

    ``small`` runs the tiny instance, for the smoke tests.
    """
    load_package()
    import calibrate
    import spans
    import workloads

    speed = calibrate.Calibration()
    speed.run_slice()  # its first slice pays for first-touch work; not counted
    speed.slices.clear()
    setup_s = None
    if not traced:
        speed.run_slice()
        setup_s = measure_setup(name, seed)

    cls = workloads.WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    tracer = spans.Tracer() if traced else None
    try:
        # Warm-up on a tiny instance: lazy imports and first-touch allocations.
        warm = cls(seed, workdir / "warm", small=True)
        warm_inputs = warm.inputs(0)
        warm.check(warm_inputs, warm.operate(warm_inputs))
        warm.discard(warm_inputs)

        workload = cls(seed, workdir, small=small)
        records = []
        start = time.perf_counter()
        index = 0
        while index < MIN_OPS or time.perf_counter() - start < seconds:
            speed.run_slice()
            inputs = workload.inputs(index)
            traced_op = traced and index % 2 == 1
            if traced_op:
                tracer.install(index)
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = workload.operate(inputs)
            except Exception:  # the run goes on; the operation counts as failed
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if traced_op:
                tracer.uninstall()
            records.append(Record(inputs, result, error, elapsed, traced_op))
            index += 1
            if index == 1:
                # What a CLI user pays: one operation per process.  Later
                # reads depend on how many operations fitted in the run,
                # since the peak grows with every time-dependent solve.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed.run_slice()

        failed = 0
        wrong = 0
        first_bytes = 0
        for record in records:
            error = record.error
            if error is None:
                try:
                    problems = workload.check(record.inputs, record.result)
                except Exception:
                    problems = [traceback.format_exc()]
                if problems:
                    wrong += 1
                    error = "; ".join(problems)
                elif record.traced and record.inputs["index"] == 1 and workload.command:
                    first_bytes = workload.bytes_written(record.inputs, record.result)
            if error is not None:
                failed += 1
                print(f"operation {record.inputs['index']} failed: {error}", file=sys.stderr)
            workload.discard(record.inputs)

        untraced = [r.seconds for r in records if not r.traced]
        if traced:
            traced_times = [r.seconds for r in records if r.traced]
            per_op = [tracer.layer_metrics(r.inputs["index"]) for r in records if r.traced]
            metrics = {}
            for key in per_op[0]:
                if key in COUNT_METRICS:
                    metrics[key] = per_op[0][key]
                else:
                    metrics[key] = statistics.median(m[key] for m in per_op)
            metrics["cli.bytes_written"] = first_bytes
            metrics["trace.overhead_s"] = (
                statistics.median(traced_times) - statistics.median(untraced)
            )
            units = LAYER_UNITS
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        else:
            factor = speed.factor()
            op_wall = statistics.median(untraced)
            print(f"unscaled: op {op_wall:.4f} s, setup {setup_s:.4f} s; speed factor {factor:.4f}")
            metrics = {
                "op_s": op_wall * factor,
                "setup_s": setup_s * factor,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def summary(result: dict) -> list[str]:
    """Every metric by name, value and unit, then the operation counts."""
    lines = [f"{key:36s} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
    lines.append(f"attempted {result['attempted']}  failed {result['failed']}  "
                 f"correct {result['correct']}")
    return lines


def print_result(result: dict) -> None:
    print("\n".join(summary(result)))
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then every workload traced, each in a fresh process."""
    status = 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(f"== {name} ({'traced' if trace else 'untraced'})")
            if proc.returncode != 0:
                print(f"  exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("\n".join("  " + line for line in summary(result)))
            if not result["correct"] or result["failed"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, then traced")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
