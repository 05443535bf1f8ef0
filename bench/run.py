"""fwlab benchmark: run one workload end to end, or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see WORKLOADS.md): reproduce, large_n, composite, materialize.
Every pass runs the workload's parsed specs through
fwlab.runner.run_experiment, artifacts included, and the correctness gate in
gate.py judges every experiment of every pass.

--trace 0 reports the end-to-end metrics, each a median with its sample
count: setup_s over fresh-interpreter launches of setup_probe.py, peak_mem_mb
from the run's first pass, which runs under tracemalloc and is not timed, and
pass_s over the timed passes after it. setup_s and pass_s are wall times
rescaled to a reference machine speed by the calibration kernels of
speed.py, timed around every launch and every experiment; the raw wall-time
medians are printed and recorded beside them. --trace 1 alternates untraced
and traced passes (tracer.py) after the same untimed first pass and reports
the per-layer metrics in raw wall time, plus the tracing overhead: the
difference of the two kinds of pass, each rescaled like pass_s.

The first pass of a run is its warm-up: it pays for lazy imports and first
calls, and its peak counts the memory they take, as a user's process pays
them. Timed passes come after it, so it never enters pass_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Scratch output goes to .bench_out/ at the repository
root; a record of the run (machine, calibration kernel times, every sample)
stays there as <workload>-seed<N>-trace<T>.json, and a traced run also
leaves its spans as <workload>-seed<N>.spans.csv.gz.
"""
import os

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("reproduce", "large_n", "composite", "materialize")

SETUP_LAUNCHES = 5
SETUP_KERNEL_REPEATS = 5
MIN_TIMED_PASSES = 3
MIN_TRACED_PAIRS = 2
MB = 1e6

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_mem_mb": "MB"}
PER_LAYER = {
    "config.build_problem_calls": "count",
    "config.resolve_x0_calls": "count",
    "config.validate_s": "s",
    "config.build_problem_s": "s",
    "config.resolve_x0_s": "s",
    "config.fingerprint_s": "s",
    "geometry.lmo_calls": "count",
    "geometry.lmo_s": "s",
    "geometry.project_calls": "count",
    "geometry.project_s": "s",
    "geometry.extreme_points_s": "s",
    "geometry.contains_s": "s",
    "objectives.value_calls": "count",
    "objectives.value_s": "s",
    "objectives.grad_calls": "count",
    "objectives.grad_s": "s",
    "stepsize.line_search_calls": "count",
    "stepsize.phi_evals_per_search": "evals",
    "stepsize.line_search_s": "s",
    "solver.iterations": "count",
    "solver.solve_s": "s",
    "solver.us_per_iter": "us",
    "solver.loop_self_s": "s",
    "solver.write_trace_csv_s": "s",
    "solver.solve_peak_mem_mb": "MB",
    "analysis.estimate_curvature_s": "s",
    "analysis.bound_curve_s": "s",
    "checks.evaluate_calls": "count",
    "checks.evaluate_s": "s",
    "checks.failed": "count",
    "runner.self_s": "s",
    "runner.artifact_bytes": "bytes",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="fwlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def calibration_s() -> float:
    """Median of 30 runs of the calibration kernels.

    A diagnostic of the machine's speed at that moment: comparing the start
    and end values of a run shows how far the VM drifted during it.
    """
    return speed.kernel_median_s(30)


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


@dataclass(frozen=True)
class PassResult:
    seconds: float  # wall time of the pass's experiments
    reference_seconds: float  # the same, rescaled to the reference speed
    peak_bytes: int
    artifact_bytes: int


class PassRunner:
    """Runs passes of one workload in fresh directories and gates each."""

    def __init__(self, run_dir: Path, recorded: dict | None):
        self.run_dir = run_dir
        self.recorded = recorded
        self.reference: dict | None = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}

    def run(self, specs, call, memory: bool = False) -> PassResult:
        out = self.run_dir / f"pass{self.passes:03d}"
        self.passes += 1
        out.mkdir()
        outcomes = {}
        gc.collect()
        if memory:
            # no kernels in the memory pass: they would add to its peak
            tracemalloc.start()
        seconds = reference_seconds = 0.0
        kernel_before = 0.0 if memory else speed.kernel_s()
        for spec in specs:
            t0 = time.perf_counter()
            try:
                outcomes[spec.name] = call(spec, out)
            except Exception as exc:  # counted as a failed experiment
                outcomes[spec.name] = exc
            wall = time.perf_counter() - t0
            seconds += wall
            if not memory:
                kernel_after = speed.kernel_s()
                reference_seconds += speed.at_reference(wall, kernel_before, kernel_after)
                kernel_before = kernel_after
        peak = 0
        if memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        digests = gate.artifact_digests(out)
        failures = gate.pass_failures(outcomes, out, digests, self.reference,
                                      self.recorded)
        if self.reference is None:
            self.reference = digests
        self.attempted += len(outcomes)
        self.failed += len(failures)
        self.failures.update(failures)
        size = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        return PassResult(seconds, reference_seconds, peak, size)


class Phases:
    """Wall time of each phase of a run, for the run record."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - t0


def setup_times(raws: list[dict], spec_dir: Path) -> tuple[list[float], list[float]]:
    """Wall times of sequential fresh-interpreter launches of setup_probe.py,
    and the same rescaled to the reference speed."""
    spec_dir.mkdir()
    for i, raw in enumerate(raws):
        (spec_dir / f"{i:03d}.json").write_text(json.dumps(raw))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(spec_dir)]
    walls, rescaled = [], []
    kernel_before = speed.kernel_median_s(SETUP_KERNEL_REPEATS)
    for _ in range(SETUP_LAUNCHES):
        # no timeout: subprocess polls in 50 ms steps when given one
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        kernel_after = speed.kernel_median_s(SETUP_KERNEL_REPEATS)
        walls.append(wall)
        rescaled.append(speed.at_reference(wall, kernel_before, kernel_after))
        kernel_before = kernel_after
    return walls, rescaled


def end_to_end(runner: PassRunner, specs, raws, seconds: float,
               phase: Phases) -> tuple[dict, dict]:
    """End-to-end metrics and, for each, the samples its median is taken over."""
    from fwlab.runner import run_experiment

    with phase("setup"):
        setup_wall, setup = setup_times(raws, runner.run_dir / "specs")
    with phase("memory"):
        peak = runner.run(specs, run_experiment, memory=True).peak_bytes / MB
    timed: list[PassResult] = []
    with phase("timed"):
        while len(timed) < MIN_TIMED_PASSES or sum(r.seconds for r in timed) < seconds:
            timed.append(runner.run(specs, run_experiment))
    samples = {"setup_s": setup, "pass_s": [r.reference_seconds for r in timed],
               "peak_mem_mb": [peak]}
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    samples["setup_wall_s"] = setup_wall
    samples["pass_wall_s"] = [r.seconds for r in timed]
    return metrics, samples


def layer_metrics(t, result: PassResult) -> dict:
    """Per-layer metrics of one traced pass, except the memory and overhead ones."""
    calls, incl, own = t.layer_times()
    searches = calls["stepsize.line_search"]
    rows = t.counts["solver.iterations"]
    return {
        "config.build_problem_calls": calls["config.build_problem"],
        "config.resolve_x0_calls": calls["config.resolve_x0"],
        "config.validate_s": incl["config.validate_spec"],
        "config.build_problem_s": incl["config.build_problem"],
        "config.resolve_x0_s": incl["config.resolve_x0"],
        "config.fingerprint_s": incl["config.spec_fingerprint"],
        "geometry.lmo_calls": calls["geometry.lmo"],
        "geometry.lmo_s": incl["geometry.lmo"],
        "geometry.project_calls": calls["geometry.project"],
        "geometry.project_s": incl["geometry.project"],
        "geometry.extreme_points_s": incl["geometry.extreme_points"],
        "geometry.contains_s": incl["geometry.contains"],
        "objectives.value_calls": calls["objectives.value"],
        "objectives.value_s": incl["objectives.value"],
        "objectives.grad_calls": calls["objectives.grad"],
        "objectives.grad_s": incl["objectives.grad"],
        "stepsize.line_search_calls": searches,
        "stepsize.phi_evals_per_search":
            t.counts["stepsize.phi_evals"] / searches if searches else 0.0,
        "stepsize.line_search_s": incl["stepsize.line_search"],
        "solver.iterations": rows,
        "solver.solve_s": incl["solver.solve"],
        "solver.us_per_iter": incl["solver.solve"] / rows * 1e6 if rows else 0.0,
        "solver.loop_self_s": own["solver.solve"],
        "solver.write_trace_csv_s": incl["solver.write_trace_csv"],
        "analysis.estimate_curvature_s": incl["analysis.estimate_curvature"],
        "analysis.bound_curve_s": incl["analysis.bound_curve"],
        "checks.evaluate_calls": calls["checks.evaluate"],
        "checks.evaluate_s": incl["checks.evaluate"],
        "checks.failed": t.counts["checks.failed"],
        "runner.self_s": own["runner.run_experiment"],
        "runner.artifact_bytes": result.artifact_bytes,
    }


def per_layer(runner: PassRunner, specs, seconds: float, spans_path: Path,
              phase: Phases) -> tuple[dict, dict]:
    """Per-layer metrics and, for each, the samples its median is taken over."""
    import tracer  # imports fwlab, so only once src/ is on the path
    from fwlab.runner import run_experiment

    peaks: list[float] = []
    with phase("memory"), tracer.solve_peaks(peaks):
        runner.run(specs, run_experiment, memory=True)
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    with phase("timed"):
        while len(traced) < MIN_TRACED_PAIRS or sum(untraced) + sum(traced) < seconds:
            untraced.append(runner.run(specs, run_experiment).reference_seconds)
            t = tracer.Tracer()
            with t.installed():
                result = runner.run(specs, t.wrap("runner.run_experiment", run_experiment))
            traced.append(result.reference_seconds)
            per_pass.append(layer_metrics(t, result))
    t.write_spans(spans_path)

    samples = {name: [p[name] for p in per_pass] for name in per_pass[0]}
    samples["solver.solve_peak_mem_mb"] = [max(peaks, default=0) / MB]
    samples["trace.untraced_pass_s"] = untraced
    samples["trace.traced_pass_s"] = traced
    metrics = {name: statistics.median(samples[name]) for name in samples}
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
    samples["trace.overhead_s"] = [metrics["trace.overhead_s"]]
    return {name: metrics[name] for name in PER_LAYER}, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fwlab" / "__init__.py").is_file():
        print(f"error: fwlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fwlab

    if Path(fwlab.__file__).resolve().parent != (SRC / "fwlab").resolve():
        print(f"error: imported fwlab from {fwlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from fwlab.config import parse_spec

    machine = machine_record()
    calibration = {"start_s": calibration_s()}
    raws = workloads.WORKLOADS[args.workload](args.seed)
    specs = [parse_spec(raw, source=f"{args.workload} spec {i}")
             for i, raw in enumerate(raws)]
    recorded = gate.load_recorded() if args.workload == "reproduce" else None

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # the same name for the same arguments, so artifact paths and the
    # memory they take repeat exactly from run to run
    run_dir = OUT / f"{stem}.run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    runner = PassRunner(run_dir, recorded)
    phase = Phases()
    try:
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz"
            metrics, samples = per_layer(runner, specs, args.seconds, spans, phase)
            units = PER_LAYER
        else:
            metrics, samples = end_to_end(runner, specs, raws, args.seconds, phase)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    calibration["end_s"] = calibration_s()

    print(f"workload {args.workload}, seed {args.seed}, {len(specs)} experiments, "
          f"{runner.passes} passes")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"calibration kernel: {calibration['start_s']:.4f} s at start, "
          f"{calibration['end_s']:.4f} s at end")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} "
              f"(median of {len(samples[name])})")
    for name in ("setup_wall_s", "pass_wall_s"):
        if name in samples:
            print(f"  {name:<32} {statistics.median(samples[name]):>14.6g} {'s':<6} "
                  f"(median of {len(samples[name])}; raw wall time, not a metric)")
    print(f"  {'failed_frac':<32} {runner.failed / runner.attempted:>14.6g} "
          f"{'':<6} ({runner.failed} of {runner.attempted} experiment runs)")
    for name, reason in sorted(runner.failures.items()):
        print(f"  FAILED {name}: {reason}")

    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "calibration": calibration,
        "phase_s": phase.seconds, "metrics": metrics, "samples": samples,
        "attempted": runner.attempted,
        "failed": runner.failed, "failures": runner.failures,
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
