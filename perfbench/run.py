"""The idlab benchmark: one workload run, with checks, as one JSON line.

    python3 perfbench/run.py --workload {suite,transport,expfam} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run it from anywhere; it finds the checkout from its own path and imports
``idlab`` from the checkout's ``src``.  Every workload runs in fresh child
interpreters (``child.py``): closed loop, one client, passes back to back
after one warm-up pass, ``--jobs 1`` and numpy's default BLAS threads.

With ``--trace 0`` it reports the end-to-end metrics ``setup_s`` (median of
several fresh set-ups), ``wall_s`` and ``cpu_s`` (medians over the timed
passes) and ``peak_rss_mb``; with ``--trace 1`` the per-layer metrics of a
traced run.  Lines before the last start with ``#`` and hold run metadata,
the pass quartiles and ``fail_frac``.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means the
harness ran; ``correct`` says whether every output check held.  Exit code 1
means the harness itself failed (a child crashed, timed out, or a count
did not repeat exactly across traced passes), 2 a bad invocation or a
checkout without ``src/idlab``.  ``--tiny`` runs one small pass in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from stats import fail_frac, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "transport", "expfam")
#: fresh interpreters whose set-up time is measured in one untraced run
SETUP_SAMPLES = 5
#: no run may take longer than this, set-up and checks included
RUN_LIMIT_S = 170.0


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def _git_commit(root: str):
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(seed: int) -> dict:
    return {"seed": seed, "git_commit": _git_commit(ROOT),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_NUM_THREADS")}}


class Runner:
    """Starts child interpreters for one workload and collects their JSON."""

    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        # the workload fixes --jobs itself; the variable would override it
        self.env.pop("IDLAB_JOBS", None)
        src = os.path.join(ROOT, "src")
        self.src = src
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)

    def child(self, role: str) -> tuple[float, dict]:
        """Run one child; returns its spawn time and its result object."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--role", role,
               "--workdir", self.workdir, "--src", self.src]
        if a.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run time limit reached before the "
                               f"{role} child started")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"{role} child exceeded the run time limit")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"{role} child exited with {proc.returncode}")
        return spawned, json.loads(lines[-1])


def _untraced(runner: Runner, args):
    setups = []

    def setup_only(count):
        for _ in range(count):
            spawned, out = runner.child("setup")
            setups.append(out["ready"] - spawned)

    # set-ups before and after the measuring child, so that one disturbed
    # stretch of the run cannot move most of them
    extra = 1 if args.tiny else SETUP_SAMPLES - 1
    setup_only(extra // 2)
    spawned, main = runner.child("measure")
    setups.append(main["ready"] - spawned)
    setup_only(extra - extra // 2)
    attempted, failed = main["attempted"], main["failed"]
    failures = list(main["failures"])
    if args.workload == "suite":
        # parallelism must not change results: compare with one --jobs 2 run
        _, par = runner.child("jobs2")
        attempted += par["attempted"]
        failed += par["failed"]
        failures += par["failures"]
        for name, digest in main["digests"].items():
            attempted += 1
            if par["digests"].get(name) != digest:
                failed += 1
                failures.append(f"suite {name}: --jobs 2 results differ")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(main["wall"]), "s"),
        "cpu_s": (statistics.median(main["cpu"]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = [f"setup_s samples {setups}"]
    for key in ("wall", "cpu"):
        q1, q2, q3 = quartiles(main[key])
        notes.append(f"{key}_s passes {len(main[key])} q1 {q1:.4f} "
                     f"median {q2:.4f} q3 {q3:.4f}")
    return metrics, attempted, failed, failures, notes, main["versions"]


def _traced(runner: Runner, args):
    _, out = runner.child("trace")
    if out["count_mismatch"]:
        raise HarnessError("counts differ between traced passes: "
                           + "; ".join(out["count_mismatch"]))
    from tracing import metric_unit
    metrics = {name: (value, metric_unit(name))
               for name, value in out["layers"].items()}
    notes = [f"traced passes {out['traced_passes']}; counts are computed "
             "from array sizes and repeat exactly across traced passes"]
    return (metrics, out["attempted"], out["failed"], out["failures"], notes,
            out["versions"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small pass, for a smoke test in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "idlab", "__init__.py")):
        print(f"error: no src/idlab under {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    try:
        runner = Runner(args, workdir)
        measure = _traced if args.trace else _untraced
        metrics, attempted, failed, failures, notes, versions = measure(
            runner, args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = _metadata(args.seed)
    meta.update(workload=args.workload, trace=args.trace, tiny=args.tiny,
                versions=versions)
    print("# meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print("# " + note)
    for failure in failures:
        print("# FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"# {name:<40} {value:>16.6g} {unit}")
    print(f"# {'fail_frac':<40} {fail_frac(failed, attempted):>16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
