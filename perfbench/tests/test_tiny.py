"""Each workload end to end at tiny size, untraced and traced.

Run with ``python3 -m pytest perfbench/tests``; about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from tracing import metric_names  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", ["suite", "transport", "expfam"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = metric_names() if trace == "1" else list(END_TO_END)
    assert list(result["metrics"]) == expected
    if trace == "0":
        for name, unit in END_TO_END.items():
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
    assert any(line.startswith("# meta ") for line in lines)
    assert any("fail_frac" in line for line in lines)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
