"""Experiment registry contract."""

import math
import pathlib
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from idlab import EXPERIMENTS, ExperimentResult, IdlabError, run_experiment
from idlab.cli import _to_json
from idlab.experiments import check_params


def test_registry_has_twelve_entries():
    assert len(EXPERIMENTS) == 12


def test_every_entry_documents_itself():
    for spec in EXPERIMENTS.values():
        assert spec.anchor.strip()
        assert isinstance(spec.defaults, dict)
        assert spec.columns


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_rows_carry_exactly_the_registered_columns(name):
    # the CSV writer fills a missing key with a blank cell, so a renamed row
    # key would otherwise leave a blank column and no error
    rows = run_experiment(name, seed=7).rows
    assert rows
    for row in rows:
        assert list(row) == EXPERIMENTS[name].columns


def test_readme_experiment_table_is_the_registry():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.MULTILINE)
    assert table == [(name, spec.anchor) for name, spec in EXPERIMENTS.items()]


def test_every_list_default_declares_its_shape():
    for name, spec in EXPERIMENTS.items():
        lists = {key for key, value in spec.defaults.items() if type(value) is list}
        assert set(spec.shapes) == lists, name
        check_params(name, spec.defaults)


def test_named_axes_take_any_length_they_agree_on():
    loading = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    three = {"env_means": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "loading": loading}
    check_params("fa-three-env", three)
    with pytest.raises(ValueError, match=r"loading must have shape \('x', 3\)"):
        check_params("fa-three-env", {**three, "loading": [[1.0, 0.0]]})


def test_unknown_name_raises_before_computing():
    with pytest.raises(KeyError):
        run_experiment("definitely-not-registered")


def test_unknown_param_raises_before_computing():
    with pytest.raises(ValueError, match="n_probs"):
        run_experiment("kr-gaussian", {"n_probs": 2})


def test_int_override_accepted_where_default_is_float():
    assert run_experiment("fa-three-env", {"tol": 1}, seed=3).summary["tol"] == 1
    assert run_experiment("fa-rotation", {"mu1": [2, 0]}, seed=3).passed


def test_param_override_merges_with_defaults():
    res = run_experiment("fa-rotation", {"mu1": [2.0, 0.0]}, seed=3)
    assert isinstance(res, ExperimentResult)
    assert res.passed


def test_same_seed_same_rows():
    a = run_experiment("task-shift", seed=5)
    b = run_experiment("task-shift", seed=5)
    assert _to_json(asdict(a)) == _to_json(asdict(b))


def test_huge_fa_rotation_means_build_a_finite_counterexample():
    result = check_params("fa-rotation", {"mu2": [0.0, 1e300]})(7)
    assert result.passed and result.summary["rotation"] == [[-1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("summary, rows, where", [
    ({"m": np.array([[1.0, np.nan]])}, [{"v": 1.0}], "summary.m"),
    ({"m": {"r": (0.0, float("-inf"))}}, [{"v": 1.0}], "summary.m.r[1]"),
    ({"m": 1.0}, [{"v": 1.0}, {"v": np.float64("inf")}], "rows[1].v"),
])
def test_run_rejects_a_non_finite_result(monkeypatch, summary, rows, where):
    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "setup",
                        lambda params: lambda seed: (True, summary, rows))
    with pytest.raises(IdlabError, match=rf"^{re.escape(where)} is not finite$"):
        check_params("fa-rotation", {})(7)


def test_a_floating_point_exception_rejects_a_setup_and_fails_a_run(monkeypatch):
    def overflow(*_):
        return np.float64(1e300) * np.float64(1e300)

    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "setup", overflow)
    with pytest.raises(ValueError, match="^fa-rotation: overflow encountered"):
        check_params("fa-rotation", {})
    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "setup", lambda params: overflow)
    with pytest.raises(IdlabError, match="^overflow encountered"):
        check_params("fa-rotation", {})(7)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_defaults_fail_no_run_on_twenty_seeds(name):
    # no run at defaults may raise, neither a floating-point exception nor an
    # uncertified transform; verdicts are not asserted, since some cells are
    # level-alpha tests that fail on a few seeds by design
    run = check_params(name, {})
    for s in range(20):
        assert isinstance(run(s), ExperimentResult)


# ---------------------------------------------------------------------------
# the boundary under fuzzing: a config is rejected by check_params, or its
# run returns a result or fails numerically
# ---------------------------------------------------------------------------

#: the largest value drawn for each count or size, so a run takes milliseconds
CAPS = {"n": 300, "n_per_env": 300, "n_probes": 100, "n_pairs": 3,
        "max_dim": 3, "n_seeds": 3, "grid": 5, "dims": 3}
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(-10.0, 10.0))
INTS = st.one_of(st.sampled_from([0, -1, 2 ** 63, -(2 ** 63)]), st.integers(-3, 5))
FAMILIES = st.sampled_from(["gaussian", "laplace_product", "gaussian_mixture", "cauchy"])


def _leaf_strategy(key, default):
    while isinstance(default, list):
        default = default[0]
    if key in CAPS:  # one draw in five is 0 or negative
        return st.tuples(st.integers(0, 4), st.integers(1, CAPS[key])).map(
            lambda t: -(t[1] % 3) if t[0] == 4 else t[1])
    if isinstance(default, str):
        return FAMILIES
    return INTS if type(default) is int else FLOATS


@st.composite
def _nested(draw, lengths, leaf):
    if not lengths:
        return draw(leaf)
    return [draw(_nested(lengths[1:], leaf)) for _ in range(lengths[0])]


@st.composite
def _list_value(draw, shape, sizes, leaf):
    """A list of ``shape``, or of one axis too long, too short or too many."""
    lengths = [sizes[axis] if isinstance(axis, str) else axis for axis in shape]
    kind = draw(st.sampled_from(["right", "right", "length", "depth"]))
    if kind == "length":
        i = draw(st.integers(0, len(lengths) - 1))
        lengths[i] = max(0, lengths[i] + draw(st.sampled_from([-1, 1])))
    elif kind == "depth":
        lengths = lengths[:-1] if len(lengths) > 1 and draw(st.booleans()) else lengths + [1]
    return draw(_nested(lengths, leaf))


@st.composite
def overrides(draw, name):
    """Overrides for ``name``: every count capped, any other key left at its
    default or drawn from 0, negative, huge and non-finite numbers and lists
    of the right or the wrong shape."""
    spec = EXPERIMENTS[name]
    sizes = {axis: draw(st.integers(1, 3)) for shape in spec.shapes.values()
             for axis in shape if isinstance(axis, str)}
    params = {}
    for key, default in spec.defaults.items():
        if key not in CAPS and draw(st.integers(0, 2)):
            continue  # two keys in three keep their default
        leaf = _leaf_strategy(key, default)
        params[key] = (draw(_list_value(spec.shapes[key], sizes, leaf))
                       if isinstance(default, list) else draw(leaf))
    return params


@pytest.mark.parametrize("name", list(EXPERIMENTS))
@seed(20261019)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_a_config_fails_at_the_boundary_or_numerically(name, data):
    params = data.draw(overrides(name), label="params")
    try:
        run = check_params(name, params)
    except ValueError:
        return
    try:
        result = run(3)
    except IdlabError:
        return
    assert isinstance(result, ExperimentResult)
