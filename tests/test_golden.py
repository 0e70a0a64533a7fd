"""The criterion-11 suite run against the committed goldens, and the first
block of the committed seed sweep.

Regenerate the goldens with ``python tests/goldens.py regen``, and the sweep
with ``python tests/goldens.py sweep``, when a change is meant to move
results; the diff then shows what moved.
"""

import json

import numpy as np
import pytest

from goldens import (SWEEP_BLOCK, changes, collect, golden_files,
                     installed_versions, mismatches, recorded_sweep,
                     recorded_versions, strip_timestamp, sweep_changes,
                     sweep_digests)


def test_suite_matches_goldens_within_tolerance(suite_run):
    code, _, out = suite_run
    assert code == 0
    runs = collect(out)
    goldens = golden_files()
    assert sorted(runs) == sorted(goldens)
    for name, data in runs.items():
        found = mismatches(json.loads(data), json.loads(goldens[name]))
        assert not found, f"{name}: {found[:5]}"


def test_suite_matches_golden_bytes(suite_run):
    if installed_versions() != recorded_versions():
        pytest.skip(f"goldens come from {recorded_versions()}, "
                    f"installed are {installed_versions()}")
    _, _, out = suite_run
    goldens = golden_files()
    for name, data in collect(out).items():
        assert data == goldens[name], name


def test_first_sweep_block_matches_its_digests():
    # seeds 0-19 of every experiment; CI checks all ten blocks
    recorded = recorded_sweep()
    pinned = {k: recorded[k] for k in ("numpy", "scipy")}
    if installed_versions() != pinned:
        pytest.skip(f"the sweep comes from {pinned}, "
                    f"installed are {installed_versions()}")
    assert recorded["seeds_per_block"] == SWEEP_BLOCK
    assert sweep_changes(sweep_digests([0]), recorded["digests"], [0]) == []


def test_sweep_report_names_every_moved_block():
    old = {"a": ["0", "1", "2"], "b": ["0", "1", "2"], "c": ["0", "1", "2"]}
    got = {"a": ["0", "x", "2"], "c": ["y", "1", "z"], "d": ["0", "1", "2"]}
    assert sweep_changes(got, old, range(3)) == [
        "b: removed", "a: seeds 20-39 moved", "c: seeds 0-19 moved",
        "c: seeds 40-59 moved", "d: new"]
    assert sweep_changes({"a": ["0"], "c": ["y"]}, old, [2]) == [
        "b: removed", "a: seeds 40-59 moved", "c: seeds 40-59 moved"]


def test_tolerance_check_sees_1e9_but_not_one_ulp():
    want = {"summary": {"max_sup_dev": 0.01025, "n_pass": 20},
            "passed": True, "rows": [{"cell": "a", "dev": 1e-15}]}
    assert mismatches(json.loads(json.dumps(want)), want) == []
    ulp = {**want, "summary": {"max_sup_dev": float(np.nextafter(0.01025, 1.0)),
                               "n_pass": 20}}
    assert mismatches(ulp, want) == []
    moved = {**want, "summary": {"max_sup_dev": 0.01025 * (1 + 1e-9),
                                 "n_pass": 20}}
    assert mismatches(moved, want) == [
        f"$.summary.max_sup_dev: {0.01025 * (1 + 1e-9)!r} != golden 0.01025"]


@pytest.mark.parametrize("got", [
    {"passed": 1, "n": 3, "name": "x", "v": None},
    {"passed": True, "n": 3.0, "name": "x", "v": None},
    {"passed": True, "n": 3, "name": "y", "v": None},
    {"passed": True, "n": 3, "name": "x", "v": 0.0},
    {"passed": True, "n": 3, "name": "x"},
])
def test_tolerance_check_compares_non_floats_exactly(got):
    want = {"passed": True, "n": 3, "name": "x", "v": None}
    assert len(mismatches(got, want)) == 1


def test_strip_timestamp_keeps_the_other_bytes():
    text = (b'{\n  "name": "x",\n  "passed": true,\n'
            b'  "timestamp": "2026-01-01T00:00:00+00:00"\n}\n')
    assert strip_timestamp(text) == b'{\n  "name": "x",\n  "passed": true\n}\n'
    with pytest.raises(ValueError):
        strip_timestamp(b'{\n  "name": "x"\n}\n')


def test_regen_report_names_every_moved_field():
    old = {"a.json": b'{"x": 1.0, "y": 2.0}', "b.json": b'{"x": 1.0}',
           "c.json": b'{"x": 1.0}', "d.json": b'{"x": 1.0}'}
    runs = {"a.json": b'{"x": 1.5, "y": 2.5}', "c.json": b'{"x": 1.0}',
            "d.json": b'{"x": 1.0000000000000002}', "e.json": b'{"x": 1.0}'}
    assert changes(runs, old) == [
        "b.json: removed",
        "a.json $.x: 1.5 != golden 1.0", "a.json $.y: 2.5 != golden 2.0",
        "d.json $.x: 1.0000000000000002 != golden 1.0",
        "e.json: new"]
