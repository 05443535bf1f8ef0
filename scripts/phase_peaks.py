"""Peak traced memory of each phase of one experiment run.

    python3 scripts/phase_peaks.py [--specs materialize_simplex_1e5 large_box_open]
                                   [--seed 1] [--root DIR]

Runs each named spec of the benchmark's workloads (bench/workloads.py at
--seed) through fwlab.runner.run_experiment under tracemalloc, and splits
the run at the runner's calls into five phases, each ending where the next
begins:
- validation: up to the return of validate_spec;
- solve: the solve's problem, its x0 and the solve, up to the drift check;
- drift check: the spec fingerprinted again, up to the trace's return;
- checks: the trace CSV, the checks' problem, the checks and the bounds CSV,
  up to the summary's spec_fingerprint;
- summary: that fingerprint and the summary JSON.

Each phase's peak is in MB (1e6 bytes) above the memory in use when the run
began, and in n-vectors of 8n bytes, n the spec's dimension. A spec is first
run once untraced at seed + 1, a configuration that differs in every vector,
so lazy imports and first calls are paid and the fingerprint memo misses as
in a fresh run. --root runs the fwlab sources and workloads of another
checkout with this script. Prints one JSON object.
"""
import os

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

PHASES = ("validation", "solve", "drift check", "checks", "summary")
MB = 1e6


class PhaseProbe:
    """Wraps the runner's calls that end a phase, and records each phase's peak."""

    def __init__(self, runner):
        self.runner = runner
        self.peaks: dict[str, int] = {}
        self.base = 0
        self.in_run_trace = False

    def end(self, phase: str) -> None:
        self.peaks[phase] = tracemalloc.get_traced_memory()[1] - self.base
        tracemalloc.reset_peak()

    def _validate_spec(self, fn):
        def wrapped(spec):
            checks = fn(spec)
            self.end("validation")
            return checks
        return wrapped

    def _run_trace(self, fn):
        def wrapped(spec):
            self.in_run_trace = True
            try:
                return fn(spec)
            finally:
                self.in_run_trace = False
                self.end("drift check")
        return wrapped

    def _spec_fingerprint(self, fn):
        def wrapped(spec):
            # the solve's run fingerprints the spec once more after the solve;
            # a wrapper around solve itself would hold its x0 argument
            self.end("solve" if self.in_run_trace else "checks")
            return fn(spec)
        return wrapped

    def run(self, spec, out_dir) -> dict[str, int]:
        runner = self.runner
        saved = {name: getattr(runner, name)
                 for name in ("validate_spec", "_run_trace", "spec_fingerprint")}
        runner.validate_spec = self._validate_spec(saved["validate_spec"])
        runner._run_trace = self._run_trace(saved["_run_trace"])
        runner.spec_fingerprint = self._spec_fingerprint(saved["spec_fingerprint"])
        self.peaks = {}
        tracemalloc.start()
        try:
            self.base = tracemalloc.get_traced_memory()[0]
            runner.run_experiment(spec, out_dir)
            self.end("summary")
        finally:
            tracemalloc.stop()
            for name, fn in saved.items():
                setattr(runner, name, fn)
        return self.peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", nargs="+",
                        default=["materialize_simplex_1e5", "large_box_open"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "bench")]

    import fwlab.runner
    import workloads
    from fwlab.config import parse_spec
    from fwlab.geometry import set_from_descriptor

    def raw_specs(seed):
        return {raw["name"]: raw for make in workloads.WORKLOADS.values()
                for raw in make(seed)}

    raws, warm = raw_specs(args.seed), raw_specs(args.seed + 1)
    probe = PhaseProbe(fwlab.runner)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.specs:
            fwlab.runner.run_experiment(parse_spec(warm[name]), Path(tmp) / "warm")
            spec = parse_spec(raws[name])
            peaks = probe.run(spec, Path(tmp) / "run")
            # a vertex polytope has no 'dim' field; its set reads it off the vertices
            n = set_from_descriptor(spec.problem["set"]).dim
            vector = 8 * n
            runs.append({
                "spec": name,
                "n": n,
                "peak_mb": {p: round(peaks[p] / MB, 4) for p in PHASES},
                "peak_n_vectors": {p: round(peaks[p] / vector, 3) for p in PHASES},
            })
    print(json.dumps({"root": str(args.root), "seed": args.seed, "runs": runs}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
