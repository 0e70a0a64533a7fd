"""Command line driver: exit codes, artifact layout, determinism."""

import json
import subprocess
import sys

import jsonschema
import pytest

from idlab import experiment_names, experiments
from idlab.cli import CONFIG_SCHEMA, main
from idlab.errors import RankDeficient
from idlab.experiments import check_params

from goldens import collect

REGISTRY_ORDER = [
    "kr-identity",
    "kr-gaussian",
    "ica-comon",
    "fa-rotation",
    "fa-three-env",
    "expfam-kernel",
    "strong-vae",
    "ivae-affine",
    "two-labs",
    "task-shift",
    "task-indep",
    "multiview",
]


#: ``"all"`` with its largest counts cut down, so a run takes ~0.1 s;
#: two-labs' Laplace cell then misses its KS ratio and fails its claim
SMALL_ALL = {"two-labs": {"n": 5000}, "ivae-affine": {"n_per_env": 5000},
             "strong-vae": {"n_seeds": 4, "min_passes": 4}}


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_registry_is_stable():
    assert experiment_names() == REGISTRY_ORDER


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", experiment="fa-rotation", seed=11)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "fa-rotation: pass" in capsys.readouterr().out

    base = tmp_path / "out" / "fa-rotation"
    echoed = json.loads((base / "config.echo.json").read_text())
    assert echoed["experiment"] == "fa-rotation" and echoed["seed"] == 11
    results = json.loads((base / "results.json").read_text())
    assert results["passed"] is True
    assert "timestamp" in results and results["name"] == "fa-rotation"
    csv_text = (base / "tables" / "fa-rotation.csv").read_text()
    assert csv_text.splitlines()[0].count(",") >= 1


def test_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", experiment="task-shift")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    ra = json.loads((tmp_path / "a" / "task-shift" / "results.json").read_text())
    rb = json.loads((tmp_path / "b" / "task-shift" / "results.json").read_text())
    ra.pop("timestamp"), rb.pop("timestamp")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    ca = (tmp_path / "a" / "task-shift" / "tables" / "task-shift.csv").read_bytes()
    cb = (tmp_path / "b" / "task-shift" / "tables" / "task-shift.csv").read_bytes()
    assert ca == cb


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", experiment="kr-gaussian", seed=1, params={"n_pairs": 2})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "b")]) == 0
    assert main(["run", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "c")]) == 0
    rows = []
    for sub in "abc":
        r = json.loads((tmp_path / sub / "kr-gaussian" / "results.json").read_text())
        rows.append(json.dumps(r["rows"], sort_keys=True))
    assert rows[0] == rows[1]
    assert rows[0] != rows[2]


class TestUsageErrors:
    def test_unknown_experiment_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", experiment="not-a-thing")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert "unknown experiment" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "o")]) == 2

    def test_missing_experiment_key(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seed=3)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", experiment="fa-rotation", bogus=1)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_override_key_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", experiment="kr-gaussian", params={"n_probs": 2})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "n_probs" in capsys.readouterr().err

    def test_all_with_unknown_experiment_in_params_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", experiment="all", params={"not-a-thing": {}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert "not-a-thing" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"n_probs": 2}, 5])
    def test_all_with_one_bad_entry_writes_nothing(self, tmp_path, bad):
        # the bad entry belongs to the last experiment, so nothing may run
        # ahead of the check
        params = {"kr-gaussian": {"n_pairs": 2}, "multiview": bad}
        cfg = write_config(tmp_path / "cfg.json", experiment="all", params=params)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, params, message", [
        ("all", {"multiview": {"n": -1}}, "multiview: n must be >= 1"),
        ("all", {"strong-vae": {"n_per_env": "many"}}, "strong-vae: n_per_env must be of type int"),
        ("kr-gaussian", {"n_pairs": 0}, "n_pairs must be >= 1"),
        ("kr-gaussian", {"n_pairs": True}, "n_pairs must be of type int"),
        ("kr-gaussian", {"n_pairs": 2.0}, "n_pairs must be of type int"),
        ("kr-gaussian", {"tol": "small"}, "tol must be of type float"),
        ("kr-identity", {"dims": 3}, "dims must be of type list"),
        ("kr-gaussian", {"tol": -1}, "tol must lie in (0, inf), got -1"),
        ("two-labs", {"alpha": 1.5}, "alpha must lie in (0, 1), got 1.5"),
        ("all", {"task-indep": {"pair": ["a", 0]}}, "task-indep: pair entries must be of type int, got 'a'"),
        ("kr-identity", {"dims": ["a"]}, "dims entries must be of type int, got 'a'"),
        ("task-indep", {"pair": [True, 0]}, "pair entries must be of type int, got True"),
        ("fa-rotation", {"mu1": [0, 0, 0]}, "mu1 must have shape (2,), got [0, 0, 0]"),
        ("fa-rotation", {"loading": []}, "loading must have shape ('x', 2), got []"),
        ("two-labs", {"loading": [[1.0, 0.0, 0.0], [0.6, 1.0, 0.0]]}, "loading must have shape (2, 2)"),
        ("strong-vae", {"offset": [0.5]}, "offset must have shape (2,), got [0.5]"),
        ("all", {"task-shift": {"obs": [[1.0, 0.0]]}}, "task-shift: obs must have shape ('n', 3)"),
        # a named axis takes one length across params, overridden or not
        ("fa-three-env", {"loading": [[1.0, 0.0, 0.0]]}, "loading must have shape ('x', 2)"),
        ("fa-rotation", {"loading": [[1.0, 0.0], [0.5]]}, "loading must have shape ('x', 2)"),
        # value rules a constructor or runner enforces are checked up front,
        # so under "all" no earlier experiment is written first
        ("fa-three-env", {"env_means": [[0.0, 0.0]]}, "fa-three-env: env_means needs at least 2 rows"),
        ("all", {"task-indep": {"pair": [2, 0]}}, "task-indep: pair entries must be 0 or 1"),
        ("task-indep", {"pair": [0, -1]}, "task-indep: pair entries must be 0 or 1"),
        ("all", {"two-labs": {"loading": [[1.0, 0.0], [0.6, -1.0]]}},
         "two-labs: loading rejected: diagonal entries must be strictly positive"),
        ("all", {"fa-rotation": {"loading": [[1.0, 0.0], [2.0, 0.0]]}},
         "fa-rotation: loading rejected: loading must have full column rank"),
        ("task-indep", {"loading": [[1.0, 0.5], [0.6, 1.0]]}, "task-indep: loading rejected: matrix must be lower triangular"),
        ("fa-three-env", {"loading": [[1.0, 2.0], [2.0, 4.0]]}, "fa-three-env: loading rejected"),
        ("all", {"task-shift": {"k": 5}}, "task-shift: k must be 0 or 1, got 5"),
        ("all", {"task-indep": {"n": 10}}, "task-indep: n must be >= 30 for the independence statistic, got 10"),
        # means that fail fit_env_affine_generator's rank test
        ("all", {"strong-vae": {"radius": 0.0}},
         "strong-vae: radius rejected: environment means do not pin an affine generator"),
        ("ivae-affine", {"radius": 0.0}, "ivae-affine: radius rejected"),
        ("all", {"ivae-affine": {"gauge_matrix": [[1.0, 2.0], [0.5, 1.0]]}},
         "ivae-affine: gauge_matrix rejected: environment means do not pin an affine generator"),
        # the config reader refuses the non-finite numbers Python's json admits
        ("all", {"multiview": {"angle_deg": float("nan")}}, "non-finite number NaN"),
        ("all", {"two-labs": {"angle_deg": float("inf")}}, "non-finite number Infinity"),
        ("all", {"task-shift": {"delta": float("nan")}}, "non-finite number NaN"),
        # each setup builds what its run needs, so the builders' own rules
        # reject these before any experiment runs
        ("all", {"fa-rotation": {"mu1": [1.0, 0.0], "mu2": [1.0, 0.0]}},
         "fa-rotation: environment means must be distinct"),
        ("kr-identity", {"families": ["cauchy"]}, "kr-identity: unknown prior family: 'cauchy'"),
        # found by test_a_config_fails_at_the_boundary_or_numerically
        ("all", {"two-labs": {"n": 1}}, "two-labs: n must be >= 20 for the moment fits, got 1"),
        ("kr-identity", {"dims": [0]}, "kr-identity: need at least one coordinate"),
    ])
    def test_bad_override_value_writes_nothing(self, tmp_path, capsys, experiment, params, message):
        cfg = write_config(tmp_path / "cfg.json", experiment=experiment, params=params)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
    ])
    def test_bad_seed_or_jobs_writes_nothing(self, tmp_path, capsys, flags, message):
        cfg = write_config(tmp_path / "cfg.json", experiment="kr-gaussian", params={"n_pairs": 2})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("delta", float("nan")), ("delta", float("inf")), ("obs", [[1.0, float("-inf"), 0.0]]),
])
def test_non_finite_override_rejected_in_process(key, value):
    with pytest.raises(ValueError, match=f"task-shift: {key} must be finite"):
        check_params("task-shift", {key: value})


def test_numerical_failure_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a config that passes check_params can still fail numerically in the
    # run; a fit that raises RankDeficient stands in for such a failure
    def failing_fit(means, envset):
        raise RankDeficient("environment means do not pin an affine generator")

    monkeypatch.setattr(experiments, "fit_env_affine_generator", failing_fit)
    params = {"n_per_env": 1000, "n_seeds": 1, "min_passes": 1}
    cfg = write_config(tmp_path / "cfg.json", experiment="strong-vae", params=params)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "strong-vae").exists()
    assert "environment means do not pin an affine generator" in capsys.readouterr().err


# the shift's residual overflows inside numpy, which warns; the exit code
# and the empty output are what is checked here
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_result_exits_3_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", experiment="expfam-kernel", params={"shift": 1e300})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()
    assert "expfam-kernel: summary.shift_residual is not finite" in capsys.readouterr().err


def test_config_schema_is_a_valid_schema():
    # the runner's cached validator does not check the schema itself
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_numerical_failure_under_all_writes_nothing(tmp_path, capsys, monkeypatch):
    # the fit fails in strong-vae and in ivae-affine, the seventh and eighth
    # experiments; results are written only once every experiment has
    # returned, and the first failure in registry order is the one reported
    def failing_fit(means, envset):
        raise RankDeficient("environment means do not pin an affine generator")

    monkeypatch.setattr(experiments, "fit_env_affine_generator", failing_fit)
    cfg = write_config(tmp_path / "cfg.json", experiment="all", params=SMALL_ALL)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 3
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "strong-vae: environment means do not pin an affine generator" in err
    assert "ivae-affine" not in err


@pytest.mark.parametrize("name", ["strong-vae", "ivae-affine"])
def test_negative_radius_is_accepted(name):
    # a negative radius turns the equilateral means half a turn; they still pin
    check_params(name, {"radius": -3.0})


def test_claim_failure_still_writes_reports(tmp_path, capsys):
    # a statistic bound calibrated for n=1000 will not hold at n=40 — this is
    # a claim failure (exit 1), not a usage error, and artifacts must exist
    cfg = write_config(tmp_path / "cfg.json", experiment="task-indep", params={"n": 40})
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "task-indep: FAIL" in capsys.readouterr().out
    results = json.loads((tmp_path / "out" / "task-indep" / "results.json").read_text())
    assert results["passed"] is False


def test_list_plain(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln.strip()]
    assert len(lines) == 12
    assert [ln.split()[0] for ln in lines] == REGISTRY_ORDER


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == REGISTRY_ORDER
    assert all(r["anchor"].strip() for r in rows)


def test_schema_output(capsys):
    assert main(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.Draft202012Validator.check_schema(doc)
    assert set(doc["x-experiments"]) == set(REGISTRY_ORDER)
    assert doc["required"] == ["experiment"]


def test_schema_matches_module_constant(capsys):
    assert main(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in CONFIG_SCHEMA["properties"]:
        assert key in doc["properties"]


def test_jobs_flag_keeps_results_bytes(tmp_path):
    # experiments run concurrently at --jobs 2; every file keeps its bytes
    cfg = write_config(tmp_path / "cfg.json", experiment="all", params=SMALL_ALL)
    codes = [main(["run", "--config", cfg, "--out", str(tmp_path / out), "--jobs", jobs])
             for out, jobs in (("serial", "1"), ("parallel", "2"))]
    assert codes[0] == codes[1] in (0, 1)
    serial, parallel = collect(tmp_path / "serial"), collect(tmp_path / "parallel")
    assert len(serial) == 13 and serial == parallel
    tables = sorted((tmp_path / "serial").glob("*/tables/*.csv"))
    assert len(tables) == 12
    for table in tables:
        assert (tmp_path / "parallel" / table.relative_to(tmp_path / "serial")).read_bytes() == table.read_bytes()


def test_each_setup_runs_once_per_run(tmp_path, monkeypatch):
    # validation builds each experiment once and the run reuses what it built
    calls = []
    for name, spec in experiments.EXPERIMENTS.items():
        def counted(params, setup=spec.setup, name=name):
            calls.append(name)
            return setup(params)
        monkeypatch.setattr(spec, "setup", counted)
    cfg = write_config(tmp_path / "cfg.json", experiment="all", params=SMALL_ALL)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]) in (0, 1)
    assert calls == REGISTRY_ORDER


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "idlab.cli", "list", "--json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert [r["name"] for r in json.loads(proc.stdout)] == REGISTRY_ORDER


def test_import_leaves_scipy_stats_and_integrate_unloaded(tmp_path):
    # the library computes its KS critical values, midranks and
    # exponential-family tables with numpy and scipy.special, so neither a
    # full suite run nor an ExpFamily draw loads the larger subpackages
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "all", "seed": 7}))
    code = "\n".join([
        "import sys, idlab, idlab.cli",
        f"assert idlab.cli.main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0",
        "idlab.ExpFamily.gaussian_mean_family([2.9, -0.78]).sample(idlab.stream(1, 0), 100)",
        "print(sorted({'scipy.stats', 'scipy.integrate'} & set(sys.modules)))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
