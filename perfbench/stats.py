"""Summary statistics shared by the benchmark's parent and child processes."""

from __future__ import annotations

import statistics


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles, since ``statistics.quantiles``
    needs at least two points.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fail_frac(failed: int, attempted: int) -> float:
    """Operations whose check failed or that raised, over those attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


class Tally:
    """Counts attempted and failed operations of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, fn):
        """Run ``fn``; it returns True when the output is correct.

        A False result or any exception counts as one failed operation and
        is kept, with its label, for the report.
        """
        self.attempted += 1
        try:
            ok = bool(fn())
            why = "output check failed"
        except Exception as exc:  # the harness reports and keeps going
            ok = False
            why = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {why}")
