"""End-to-end acceptance run: eleven numbered claims, one verdict line each.

Each test exercises a claim at its stated tolerance and wall-clock budget and
records a single pass/fail line; the lines are echoed together at the end of
the pytest session.
"""

import json
import re
import time

import numpy as np

from idlab import (
    Automorphism,
    GaussianDistribution,
    Laplace1D,
    LinearGenerator,
    ModelParams,
    ProductDistribution,
    act_on_params,
    independence_test_task,
    latent_shift_task,
    run_experiment,
    stream,
    task_identifiability_check,
)
from idlab.cli import main as cli_main

from conftest import ACCEPTANCE_LINES
from goldens import SUITE_CONFIG


def record(num, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:02d}  {verdict}  {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


def test_criterion_01_self_transport_is_identity():
    t0 = time.perf_counter()
    res = run_experiment("kr-identity", seed=7)
    elapsed = time.perf_counter() - t0
    cells = {(r["family"], r["dim"]) for r in res.rows}
    ok = (
        res.passed
        and len(cells) == 9
        and all(r["sup_dev"] < 1e-6 for r in res.rows)
        and elapsed < 10.0
    )
    record(1, ok, f"self-transport identity on 9 family/dim cells, max dev "
                  f"{res.summary['max_sup_dev']:.2e} < 1e-06 ({elapsed:.1f}s < 10s)")


def test_criterion_02_recursion_matches_gaussian_closed_form():
    t0 = time.perf_counter()
    res = run_experiment("kr-gaussian", seed=7)
    elapsed = time.perf_counter() - t0
    ok = (
        res.passed
        and len(res.rows) == 10
        and all(r["sup_diff"] < 1e-5 for r in res.rows)
        and elapsed < 30.0
    )
    record(2, ok, f"conditional-CDF recursion vs closed form on 10 Gaussian pairs, max diff "
                  f"{res.summary['max_sup_diff']:.2e} < 1e-05 ({elapsed:.1f}s < 30s)")


def test_criterion_03_product_law_transport_is_componentwise():
    t0 = time.perf_counter()
    res = run_experiment("ica-comon", seed=7)
    elapsed = time.perf_counter() - t0
    structure = res.summary["structure"]
    ok = (
        res.passed
        and structure["passed"]
        and structure["max_offdiag"] < 1e-4
        and res.summary["jacobian_check"]["component_wise"]
        and elapsed < 20.0
    )
    record(3, ok, f"product-to-product transport componentwise on 200 probes, max cross-derivative "
                  f"{structure['max_offdiag']:.2e} < 1e-04 ({elapsed:.1f}s < 20s)")


def test_criterion_04_two_environments_admit_a_rotated_loading():
    t0 = time.perf_counter()
    rot = run_experiment("fa-rotation", seed=7)
    multi = run_experiment("fa-three-env", seed=7)
    elapsed = time.perf_counter() - t0
    three_env = [r for r in multi.rows if r["unique"]]
    ok = (
        rot.passed
        and rot.summary["constraint_dev"] < 1e-12
        and rot.summary["loading_distance"] > 0.5
        and multi.passed
        and three_env
        and all(r["deviation"] < 1e-8 for r in three_env)
        and elapsed < 1.0
    )
    record(4, ok, f"matched moments with loading distance {rot.summary['loading_distance']:.3f} > 0.5 "
                  f"(constraint dev {rot.summary['constraint_dev']:.1e}); spanning environments pin it to "
                  f"{multi.summary['deviation']:.1e} < 1e-08 ({elapsed:.2f}s < 1s)")


def test_criterion_05_kernel_residual_separates_flip_from_shift():
    t0 = time.perf_counter()
    res = run_experiment("expfam-kernel", seed=7)
    elapsed = time.perf_counter() - t0
    fixed = res.summary["fixed_coord_dev"]
    ok = (
        res.passed
        and res.summary["flip_residual"] < 1e-12
        and fixed["passed"]
        and res.summary["shift_residual"] >= 0.1 - 1e-12
        and elapsed < 1.0
    )
    record(5, ok, f"statistic-kernel residual: flip {res.summary['flip_residual']:.1e} < 1e-12 with first "
                  f"two coordinates fixed, translation {res.summary['shift_residual']:.12f} >= 0.1 - 1e-12 "
                  f"({elapsed:.2f}s < 1s)")


def test_criterion_06_independent_fits_agree_on_the_bulk():
    t0 = time.perf_counter()
    res = run_experiment("strong-vae", seed=7)
    elapsed = time.perf_counter() - t0
    tol = 5.0 / np.sqrt(100_000.0)
    ok = (
        res.passed
        and res.summary["config_valid"]
        and res.summary["n_pass"] >= 19
        and res.summary["tol"] == tol
        and res.summary["max_sup_dev"] < tol
        and elapsed < 120.0
    )
    record(6, ok, f"disjoint-half fits agree within 5/sqrt(n): {res.summary['n_pass']}/20 seeds, max dev "
                  f"{res.summary['max_sup_dev']:.4f} < {tol:.4f} ({elapsed:.1f}s < 120s)")


def test_criterion_07_latent_statistics_related_affinely():
    t0 = time.perf_counter()
    res = run_experiment("ivae-affine", seed=7)
    elapsed = time.perf_counter() - t0
    row = res.rows[0]
    ok = (
        res.passed
        and row["residual"] < 10.0 * row["frozen_dev"]
        and row["cond_L"] < 1e3
        and elapsed < 120.0
    )
    record(7, ok, f"recovered statistics affine across labs: residual {row['residual']:.1e} < "
                  f"10 x {row['frozen_dev']:.1e}, condition number {row['cond_L']:.2f} < 1e3 "
                  f"({elapsed:.1f}s < 120s)")


def test_criterion_08_rotation_detected_by_the_right_check():
    t0 = time.perf_counter()
    res = run_experiment("two-labs", seed=7)
    elapsed = time.perf_counter() - t0
    cells = {r["cell"]: r for r in res.rows}
    gauss, lap = cells["gaussian_rotation"], cells["laplace_rotation"]
    ok = (
        res.passed
        and gauss["pushforward_pass"]
        and gauss["identity_sup_dev"] > 1e-3
        and not lap["pushforward_pass"]
        and lap["max_ks_ratio"] >= 3.0
        and elapsed < 30.0
    )
    record(8, ok, f"rotation hides in a round prior (pushforward ok, identity dev "
                  f"{gauss['identity_sup_dev']:.2f}) but breaks a product-Laplace prior "
                  f"(KS ratio {lap['max_ks_ratio']:.2f} >= 3) ({elapsed:.1f}s < 30s)")


def test_criterion_09_task_outputs_move_or_stay_exactly():
    t0 = time.perf_counter()
    sqrt2 = float(np.sqrt(2.0))
    embed = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    obs = np.array([[1.0, 0.0, 0.0]])

    # quarter turn moves the shift task output by exactly sqrt(2)
    gauss_prior = GaussianDistribution([0.0, 0.0], np.eye(2))
    theta = ModelParams(LinearGenerator(embed), gauss_prior)
    shift_task = latent_shift_task(1.0, 0, 2)
    rep_rot = task_identifiability_check(
        shift_task, theta, [Automorphism.from_matrix(rot90)], obs, tol=1e-9
    )
    shift_dev = abs(rep_rot.max_distance - sqrt2)

    # a componentwise monotone transform cannot move a rank statistic
    lap_prior = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.0, 1.0)])
    theta_rank = ModelParams(LinearGenerator(np.array([[1.0, 0.0], [0.6, 1.0]])), lap_prior)
    rank_task = independence_test_task((0, 1), 400, 2)
    rank_obs = theta_rank.generator.forward(lap_prior.sample(stream(7, 101), 400))
    rep_flip = task_identifiability_check(
        rank_task, theta_rank, [Automorphism.from_matrix(-np.eye(2))], rank_obs, tol=1e-12
    )

    # under the identity-only class both tasks sit still exactly
    rep_id_shift = task_identifiability_check(
        shift_task, theta, [Automorphism.identity(2)], obs, tol=1e-9
    )
    rep_id_rank = task_identifiability_check(
        rank_task, theta_rank, [Automorphism.identity(2)], rank_obs, tol=1e-12
    )
    elapsed = time.perf_counter() - t0
    ok = (
        shift_dev <= 1e-9
        and not rep_rot.identifiable
        and rep_flip.max_distance == 0.0
        and rep_flip.identifiable
        and rep_id_shift.max_distance == 0.0
        and rep_id_rank.max_distance == 0.0
        and elapsed < 10.0
    )
    record(9, ok, f"latent-shift output moves by sqrt(2) +/- {shift_dev:.1e} under a quarter turn; "
                  f"rank statistic distance {rep_flip.max_distance} under a monotone flip; both exactly 0 "
                  f"under identity only ({elapsed:.1f}s < 10s)")


def test_criterion_10_second_view_removes_the_rotation():
    t0 = time.perf_counter()
    res = run_experiment("multiview", seed=7)
    elapsed = time.perf_counter() - t0
    cells = {r["config"]: r for r in res.rows}
    pinned, rotated = cells["tmi_plus_free"], cells["consistent_rotation"]
    ok = (
        res.passed
        and pinned["identified"]
        and pinned["max_disagreement"] < 1e-6
        and not rotated["identified"]
        and elapsed < 30.0
    )
    record(10, ok, f"triangular + free view pair identified (views disagree by "
                   f"{pinned['max_disagreement']:.1e} < 1e-06); a rotation shared by both views stays "
                   f"unidentified ({elapsed:.1f}s < 30s)")


def test_criterion_11_runs_are_deterministic_and_fast(suite_run, tmp_path):
    code_a, suite_elapsed, out_a = suite_run
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps(SUITE_CONFIG))
    code_b = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])

    stamp = re.compile(rb'"timestamp": "[^"]*"')
    identical = True
    for res_a in sorted(out_a.rglob("results.json")):
        res_b = tmp_path / "b" / res_a.relative_to(out_a)
        bytes_a = stamp.sub(b'"timestamp": "X"', res_a.read_bytes())
        bytes_b = stamp.sub(b'"timestamp": "X"', res_b.read_bytes())
        identical = identical and bytes_a == bytes_b
    n_results = len(list(out_a.rglob("results.json")))

    ok = code_a == 0 and code_b == 0 and identical and n_results == 13 and suite_elapsed < 300.0
    record(11, ok, f"repeated full runs byte-identical across {n_results} result files modulo timestamp; "
                   f"whole suite in {suite_elapsed:.1f}s < 300s")
