"""One workload in a fresh interpreter; started by ``run.py``, not by hand.

Roles:

* ``setup``   - import ``idlab``, build the inputs and report when ready;
* ``jobs2``   - ``suite`` only: one untimed pass at ``--jobs 2``;
* ``measure`` - one warm-up pass, then timed passes for ``--seconds``;
* ``trace``   - one warm-up pass, then untraced and traced passes in turn.

The last line of standard output is one JSON object for the parent.
``ready`` is read from ``time.monotonic``, which on Linux is the same clock
in every process, so the parent can subtract its own spawn time from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def _timed(workload, tally):
    """Wall and CPU seconds (all threads of the process) of one pass."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    workload.run_pass(tally)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration")
                     if blas.get(k) is not None}}


def _measure(workload, tally, seconds, tiny):
    if not tiny:
        workload.run_pass(tally)
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = _timed(workload, tally)
        walls.append(wall)
        cpus.append(cpu)
        # stop before a pass that would end past the budget
        if tiny or (len(walls) >= 3
                    and time.perf_counter() - start + wall > seconds):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall": walls, "cpu": cpus, "peak_rss_mb": peak_kib / 1024.0}


def _trace(workload, tally, seconds, tiny):
    from tracing import Tracer, is_count, metric_names

    if not tiny:
        workload.run_pass(tally)
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(_timed(workload, tally)[0])
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(_timed(workload, tally)[0])
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        if len(traced) >= 2 and (tiny or time.perf_counter() - start
                                 + untraced[-1] + traced[-1] > seconds):
            break
    layers, mismatched = {}, []
    for name in metric_names():
        if name == "trace.overhead_frac":
            layers[name] = (statistics.median(traced)
                            / statistics.median(untraced) - 1.0)
        elif is_count(name):
            values = [m[name] for m in per_pass]
            layers[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(f"{name}: {values}")
        else:
            layers[name] = statistics.median(m[name] for m in per_pass)
    return {"layers": layers, "count_mismatch": mismatched,
            "traced_passes": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True,
                        choices=("setup", "jobs2", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True,
                        help="the checkout's src directory idlab must come from")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import idlab
    src = os.path.realpath(args.src) + os.sep
    if not os.path.realpath(idlab.__file__).startswith(src):
        print(f"error: idlab imported from {idlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from stats import Tally
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    extra = {"jobs": 2} if args.role == "jobs2" else {}
    workload = cls(args.seed, args.tiny, args.workdir, **extra)
    out = {"ready": time.monotonic()}

    tally = Tally()
    if args.role == "jobs2":
        workload.run_pass(tally)
    elif args.role == "measure":
        out.update(_measure(workload, tally, args.seconds, args.tiny))
    elif args.role == "trace":
        out.update(_trace(workload, tally, args.seconds, args.tiny))
    if args.role != "setup":
        out.update(attempted=tally.attempted, failed=tally.failed,
                   failures=tally.failures[:20], versions=_versions(),
                   digests=getattr(workload, "reference", None))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
