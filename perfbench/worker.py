"""One measured process: import the package, run a workload's passes.

Run by ``run.py``, never by hand.  The worker imports ``cavity_rpm.cli``,
runs one pass over the workload's commands through ``cli.main`` and
announces it on standard output with the line ``first``, so the parent can
time a fresh process from spawn to the end of its first pass.  It then runs
warm passes, each followed by the workload's calibration loop (see
``calibration.py``), and ends with one JSON line of results:

* ``first``: wall seconds of the first pass;
* ``first_calibration``: ``[wall_s, cpu_s]`` of the loop run right after
  the first pass and one discarded warm-up run of the loop;
* ``passes``: ``[wall_s, cpu_s, loop_wall_s, loop_cpu_s]`` of each untraced
  warm pass, the last two the mean of the loop runs before and after it;
* ``traced``: the same for traced passes, which alternate with untraced
  ones when ``--spans`` is given;
* ``layers``: self seconds per span name and counts, summed over the traced
  passes, with ``cli.<command>`` root spans around each command (the spans
  themselves go to the ``--spans`` file);
* ``out``, ``maxrss_kb``, ``digests`` (one hash of the output files per pass),
  ``attempted`` and ``errors``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != workloads.RPM_CONFIG:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.name != workloads.RPM_CONFIG)


def _run_command(cli, argv, errors: list, tracer=None):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                cli.main.main(args=argv, standalone_mode=False)
            else:
                tracer.span(f"cli.{argv[0]}", cli.main.main,
                            args=argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            errors.append(f"{' '.join(argv)}: exit {exc.code}")
    except Exception as exc:  # a failing command is counted, not fatal
        errors.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")


def main():
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="warm passes run until this long after the worker "
                         "started, at least one")
    ap.add_argument("--spans", help="trace every other warm pass; write the spans here")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / workloads.RPM_CONFIG).write_text(json.dumps(workloads.rpm_config(args.size)))
    commands = workloads.commands(args.workload, args.size, str(out))
    errors: list[str] = []

    import cavity_rpm.cli as cli

    w0 = time.perf_counter()
    for argv in commands:
        _run_command(cli, argv, errors)
    first = time.perf_counter() - w0
    print("first", flush=True)
    digests = {_digest(out)}

    import calibration  # after the first pass, which set-up time ends with
    kind = workloads.CALIBRATION[args.workload]
    calibration.time_loop(kind)  # warm-up: first-call costs of the loop
    loops = [calibration.time_loop(kind)]

    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
    passes, traced = [], []
    output_bytes = 0
    end, last = started + args.seconds, 0.0
    # a round starts only if one as long as the last ends before ``end``
    while not passes or time.perf_counter() + last < end:
        round_start = time.perf_counter()
        for traced_pass in ((False, True) if tracer else (False,)):
            if traced_pass:
                tracer.install()
            w0, c0 = time.perf_counter(), time.process_time()
            for argv in commands:
                _run_command(cli, argv, errors, tracer if traced_pass else None)
            timing = [time.perf_counter() - w0, time.process_time() - c0]
            if traced_pass:
                tracer.uninstall()
            loops.append(calibration.time_loop(kind))
            timing += [(loops[-2][0] + loops[-1][0]) / 2, (loops[-2][1] + loops[-1][1]) / 2]
            if traced_pass:
                traced.append(timing)
                output_bytes += _output_bytes(out)
            else:
                passes.append(timing)
            digests.add(_digest(out))
        last = time.perf_counter() - round_start

    layers = {}
    if tracer:
        layers = {**tracer.self_times(), **tracer.counts, "cli.output_bytes": output_bytes}
        Path(args.spans).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    print(json.dumps({
        "out": str(out),
        "first": first,
        "first_calibration": loops[0],
        "passes": passes,
        "traced": traced,
        "layers": layers,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": sorted(digests),
        "attempted": len(commands) * (1 + len(passes) + len(traced)),
        "errors": errors,
    }), flush=True)


if __name__ == "__main__":
    main()
