"""Benchmark of the cavity-rpm CLI; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cavity_rpm`` beside this
directory).  Each measured process is ``worker.py``, started fresh with the
BLAS thread count pinned, ``PYTHONPATH=src`` and ``CAVITY_RPM_THREADS``
unset.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import workloads  # noqa: E402

# one compute thread: cpu_s then counts work, not BLAS threads spinning, and a
# change that adds threads shows as cpu_s above wall_s
BLAS_THREADS = "1"
# set-up probes per run: fresh processes that run the workload's commands at
# the tiny size, first pass and warm passes for PROBE_SECONDS
SETUP_PROBES = 5
PROBE_SECONDS = 0.6
IMPORT_PROBES = 5
# every process a run starts must end this long after the run began, so the
# run ends well inside three minutes even if the program hangs
RUN_DEADLINE = 160.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CAVITY_RPM_THREADS"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker_argv(args, out: Path, seconds: float, size: str | None = None) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--size", size or args.size, "--out", str(out), "--seconds", str(seconds)]


def time_left(args) -> float:
    return max(1.0, args.deadline - time.perf_counter())


def run_worker(args, argv: list[str], env: dict) -> tuple[float, dict]:
    """Run one fresh worker; return (spawn to end of first pass, result)."""
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], time_left(args))[0]:
                raise subprocess.TimeoutExpired(argv, time_left(args))
            first_line = proc.stdout.readline()
            first = time.perf_counter() - start
            rest, err = proc.communicate(timeout=time_left(args))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker still running {RUN_DEADLINE:g} s into the run")
    lines = rest.splitlines()
    if first_line.strip() != "first" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return first, json.loads(lines[-1])


def import_times(args, out: Path, env: dict) -> dict:
    """Median cumulative import seconds of ``cavity_rpm.cli`` (which holds the
    package's) and of ``scipy.linalg``, over fresh processes that run one tiny
    pass, so a module imported lazily on first use still counts."""
    samples = {"cavity_rpm.cli": [], "scipy.linalg": []}
    argv = worker_argv(args, out, 0.0, size="tiny")
    argv.insert(1, "-Ximporttime")
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=time_left(args))
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
        found = dict.fromkeys(samples, 0.0)
        for match in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$",
                                 proc.stderr, re.MULTILINE):
            if match.group(2) in found:
                found[match.group(2)] += int(match.group(1)) * 1e-6
        for name, seconds in found.items():
            samples[name].append(seconds)
    return {name: statistics.median(values) for name, values in samples.items()}


def reference_s(args) -> float:
    """Reference time of the workload's calibration loop (calibration.py)."""
    return calibration.REFERENCE_S[workloads.CALIBRATION[args.workload]]


def calibrated(args, timing: list) -> tuple[float, float]:
    """Wall and CPU seconds of a pass at the calibration loop's reference
    speed: each scaled by the loop's reference time over its time beside the
    pass."""
    ref = reference_s(args)
    wall, cpu, loop_wall, loop_cpu = timing
    return wall * ref / loop_wall, cpu * ref / loop_cpu


def setup_seconds(args, first: float, result: dict) -> float:
    """A fresh process's spawn to the end of its first pass, less its median
    warm pass, both calibrated; the first against the loop run right after
    it."""
    warm = statistics.median(calibrated(args, p)[0] for p in result["passes"])
    return first * reference_s(args) / result["first_calibration"][0] - warm


def measure(args, run_dir: Path, env: dict):
    """Set-up probes, then one worker that runs warm passes to the end.

    ``wall_s`` and ``cpu_s`` are medians over the warm passes of one
    full-size worker, each calibrated against the loop timed beside it: the
    machine's speed drifts by tens of percent within seconds and over
    minutes, and the ratio of a pass to the loop moves far less than either.
    ``setup_s`` is the median of :func:`setup_seconds` over fresh processes
    that run the same commands at the tiny size, where a first full-size pass
    of several seconds would bury a set-up of half a second in its noise.
    """
    start = time.perf_counter()
    setups, probes = [], []
    for _ in range(SETUP_PROBES):
        argv = worker_argv(args, run_dir / "probe", PROBE_SECONDS, size="tiny")
        first, result = run_worker(args, argv, env)
        setups.append(setup_seconds(args, first, result))
        probes.append(result)
    print(f"set-up probes: {' '.join(f'{s:.4f}' for s in setups)} s calibrated",
          file=sys.stderr)
    remaining = args.seconds - (time.perf_counter() - start)
    first, result = run_worker(args, worker_argv(args, run_dir / "full", remaining), env)
    own = [calibrated(args, p) for p in result["passes"]]
    print(f"worker: first pass done {first:.4f} s after spawn "
          f"(pass {result['first']:.4f} s); {len(own)} calibrated warm passes "
          f"{' '.join(f'{w:.4f}' for w, _ in own)} s", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(w for w, _ in own), "s"),
        "cpu_s": (statistics.median(c for _, c in own), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    return metrics, probes + [result]


LAYER_SECONDS = {
    "effective.build_s": ["effective.build"],
    "effective.diagonalize_s": ["effective.diagonalize"],
    "effective.spectra_s": ["effective.spectra"],
    "rpm.resolvent_s": ["rpm.resolvent", "rpm.spectra"],
    "core.synthesis_s": ["core.synthesis"],
    "core.broadening_s": ["core.broadening"],
    "dynamics.evolve_s": ["dynamics.evolve"],
    "dynamics.first_transfer_s": ["dynamics.first_transfer"],
    "harmonic.spectra_s": ["harmonic.spectra"],
    "entanglement.histogram_s": ["entanglement.histogram"],
    "entanglement.score_s": ["entanglement.score"],
    "validation.run_checks_s": ["validation.run_checks"],
}


def layer_metrics(args, run_dir: Path, env: dict):
    """Per-layer metrics from one traced process, per traced pass."""
    imports = import_times(args, run_dir / "import", env)
    argv = worker_argv(args, run_dir / "full", args.seconds)
    argv += ["--spans", str(run_dir.parent / f"trace-{args.workload}.json")]
    _, result = run_worker(args, argv, env)
    layers, passes = result["layers"], len(result["traced"])
    seconds = {name: sum(layers.get(span, 0.0) for span in spans) / passes
               for name, spans in LAYER_SECONDS.items()}
    seconds.update({f"validation.{c}_s": layers.get(f"validation.{c}", 0.0) / passes
                    for c in workloads.VALIDATION_CHECKS})
    seconds["cli.self_s"] = sum(v for k, v in layers.items() if k.startswith("cli.")
                                and k != "cli.output_bytes") / passes
    traced = statistics.median(calibrated(args, p)[0] for p in result["traced"])
    untraced = statistics.median(calibrated(args, p)[0] for p in result["passes"])
    first = result["first"] * reference_s(args) / result["first_calibration"][0]

    def per_pass(name):
        return layers.get(name, 0) / passes

    def rate(work, span_seconds):
        return work / span_seconds if span_seconds > 0 else 0.0

    metrics = {
        "import.cavity_rpm_s": (imports["cavity_rpm.cli"], "s"),
        "import.scipy_linalg_s": (imports["scipy.linalg"], "s"),
        **{name: (value, "s") for name, value in seconds.items()},
        "effective.lines": (per_pass("effective.lines"), "count"),
        "rpm.steps_per_s": (rate(per_pass("rpm.steps"), seconds["rpm.resolvent_s"]), "1/s"),
        "rpm.cross_zero": (per_pass("rpm.cross_zero"), "count"),
        "core.line_samples_per_s": (rate(per_pass("core.line_samples"),
                                         seconds["core.synthesis_s"]), "1/s"),
        "entanglement.samples": (per_pass("entanglement.samples"), "count"),
        "cli.output_bytes": (per_pass("cli.output_bytes"), "bytes"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.first_excess_s": (first - untraced, "s"),
    }
    return metrics, [result]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=workloads.SIZES,
                    help="'tiny' runs the same commands at small N (for tests)")
    args = ap.parse_args()
    args.deadline = time.perf_counter() + RUN_DEADLINE

    if not (ROOT / "src" / "cavity_rpm" / "cli.py").is_file():
        print(f"error: no cavity_rpm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import reference  # scipy for the checks; after the argument checks

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = child_env()
    try:
        # writes the bytecode cache, so no measured process compiles sources
        subprocess.run([sys.executable, "-c", "import cavity_rpm.cli"], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=time_left(args))
        if args.trace:
            metrics, results = layer_metrics(args, run_dir, env)
        else:
            metrics, results = measure(args, run_dir, env)
        try:
            data = reference.load(args.workload, run_dir / "full")
        except (OSError, KeyError, ValueError) as exc:
            failures = [f"cannot read the outputs: {type(exc).__name__}: {exc}"]
        else:
            failures = reference.run_checks(args.workload, data,
                                            workloads.SPEC[args.size], args.seed)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    errors = [e for r in results for e in r["errors"]]
    for out in {r["out"] for r in results}:
        digests = {d for r in results if r["out"] == out for d in r["digests"]}
        if len(digests) != 1:
            failures.append(f"passes into {Path(out).name}/ wrote {len(digests)} different "
                            "outputs; expected one")
    for line in errors[:5] + failures:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
