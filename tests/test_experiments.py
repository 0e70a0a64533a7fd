"""Experiment registry contract."""

from dataclasses import asdict

import pytest

from idlab import EXPERIMENTS, ExperimentResult, experiment_info, run_experiment
from idlab.cli import _to_json
from idlab.experiments import check_params


def test_registry_has_twelve_entries():
    assert len(EXPERIMENTS) == 12


def test_every_entry_documents_itself():
    for name in EXPERIMENTS:
        info = experiment_info(name)
        assert info["anchor"].strip()
        assert isinstance(info["defaults"], dict)
        assert info["columns"]


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


def test_jobs_do_not_change_results():
    serial = run_experiment("strong-vae", {"n_seeds": 3, "min_passes": 3}, seed=9, jobs=1)
    threaded = run_experiment("strong-vae", {"n_seeds": 3, "min_passes": 3}, seed=9, jobs=3)
    assert _to_json(asdict(serial)) == _to_json(asdict(threaded))
