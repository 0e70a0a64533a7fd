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
from idlab.experiments import Claim, check_params


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


#: the column holding each row's verdict; fa-three-env's rows hold none, and
#: strong-vae's per-seed ``passed`` is a statistic its claims count
VERDICT_COLUMN = {"fa-rotation": "counterexample_valid", "fa-three-env": None,
                  "strong-vae": None}


def _assert_verdicts_derive_from_claims(result):
    assert result.claims and all(isinstance(c, Claim) for c in result.claims)
    assert result.passed == all(c.holds for c in result.claims)
    # a row's claims share its cell name, and the cells come in row order
    cells = {}
    for c in result.claims:
        cells.setdefault(c.cell, []).append(c.holds)
    column = VERDICT_COLUMN.get(result.name, "passed")
    if column:
        assert len(cells) == len(result.rows)
        for row, holds in zip(result.rows, cells.values()):
            assert row[column] == all(holds)
    if result.name == "strong-vae":
        assert result.summary["n_pass"] == sum(row["passed"] for row in result.rows)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_verdicts_derive_from_the_recorded_claims(name):
    result = run_experiment(name, seed=7)
    assert list(asdict(result)) == ["name", "passed", "summary", "rows", "columns"]
    _assert_verdicts_derive_from_claims(result)


#: overrides that break claims, with the (cell, op, bound) of each claim
#: broken; where a cell makes two claims, the first one breaks where params
#: allow, so a claim skipped after a failing one (``claim(a) and claim(b)``)
#: shows as a missing record
BROKEN = [
    ("kr-identity", {"tol": 1e-12}, [("laplace_product d=2", "<", 1e-12)]),
    ("kr-gaussian", {"tol": 3e-13}, [("pair 3", "<", 3e-13)]),
    ("ica-comon", {"tol": 1e9}, [("component_wise", None, None)]),
    ("fa-rotation", {"min_distance": 1e9}, [("counterexample", ">", 1e9)]),
    ("fa-three-env", {"env_means": [[0.0, 0.0], [1.0, 0.0]]}, [("all_envs", None, None)]),
    ("fa-three-env", {"loading": [[1.0], [0.5], [-0.25]], "env_means": [[0.0], [1.0], [2.0]]},
     [("two_envs", None, None)]),
    ("expfam-kernel", {"contrasts": [[0.0, 1.0, 0.0]]}, [("translation", ">=", 0.1 - 1e-12)]),
    ("strong-vae", {"min_passes": 21}, [("n_pass", ">=", 21)]),
    ("ivae-affine", {"max_cond": 1.0}, [("relation", "<", 1.0)]),
    ("two-labs", {"alpha": 0.999999}, [("gaussian_rotation", None, None)]),
    ("two-labs", {"ks_ratio_min": 1e9}, [("laplace_rotation", ">=", 1e9)]),
    ("task-shift", {"delta": 2.0}, [("rotation", "<", 1e-9)]),
    ("task-indep", {"null_bound": 1e-9}, [("independent_pair", "<", 1e-9)]),
    ("multiview", {"tol": 1e-300}, [("tmi_plus_free", None, None), ("tmi_plus_free", "<", 1e-300)]),
    ("multiview", {"angle_deg": 0.0}, [("consistent_rotation", None, None)]),
]


def test_every_experiment_has_a_claim_broken_by_an_override():
    assert {name for name, _, _ in BROKEN} == set(EXPERIMENTS)


@pytest.mark.parametrize("name, params, broken", BROKEN,
                         ids=[f"{name}-{'-'.join(params)}" for name, params, _ in BROKEN])
def test_an_override_that_breaks_a_claim_fails_the_run_and_names_it(name, params, broken):
    at_defaults = run_experiment(name, seed=7)
    result = run_experiment(name, params, seed=7)
    assert at_defaults.passed and result.passed is False
    assert [(c.cell, c.op, c.bound) for c in result.claims if not c.holds] == broken
    assert len(result.claims) == len(at_defaults.claims)
    _assert_verdicts_derive_from_claims(result)


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
    ({"m": np.array([[1.0, np.nan]])}, [(1.0,)], "summary.m"),
    ({"m": {"r": (0.0, float("-inf"))}}, [(1.0,)], "summary.m.r[1]"),
    ({"m": 1.0}, [(1.0,), (np.float64("inf"),)], "rows[1].v"),
])
def test_run_rejects_a_non_finite_result(monkeypatch, summary, rows, where):
    # rows are keyed by the registry's columns before the check reads them
    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "columns", ["v"])
    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "setup",
                        lambda params: lambda seed, claim: (summary, rows))
    with pytest.raises(IdlabError, match=rf"^{re.escape(where)} is not finite$"):
        check_params("fa-rotation", {})(7)


def test_a_floating_point_exception_rejects_a_setup_and_fails_a_run(monkeypatch):
    def overflow(*_):
        return np.float64(1e300) * np.float64(1e300)

    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "setup", overflow)
    with pytest.raises(ValueError, match="^fa-rotation: overflow encountered"):
        check_params("fa-rotation", {})
    monkeypatch.setattr(EXPERIMENTS["fa-rotation"], "setup",
                        lambda params: lambda seed, claim: overflow())
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
