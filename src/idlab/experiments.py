"""Registered experiments: each one checks a claim end to end.

Every experiment is a pure function of (params, seed, jobs) returning a
pass/fail verdict, a JSON-serializable summary, and plot-ready CSV rows
with a fixed column set.  The registry maps stable names to runners plus
the claim each one exercises; the CLI is a thin shell around `run_experiment`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .envs import (EnvironmentData, EnvironmentSet, ModelParams,
                   affine_relation_fit, fit_env_affine_generator,
                   fit_gaussian_kr, generate_environment_data,
                   validate_strong_vae_config, verify_multiview,
                   MultiViewModel)
from .indeterminacy import (act_on_params, fixed_coordinate_check,
                            generator_transform, identity_deviation,
                            indeterminacy_audit, kernel_residual)
from .linear import (LinearGenerator, comon_structure_check,
                     rotation_counterexample, solve_multi_env_linear)
from .measures import (GaussianDistribution, GaussianMixture1D, Laplace1D,
                       Logistic1D, ProductDistribution, interdecile_box)
from .rng import stream
from .tasks import (independence_test_task, latent_shift_task, spearman_abs,
                    task_identifiability_check)
from .transport import (AffineMap, Automorphism, component_wise_check,
                        jacobian_fd, kr_transport)

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment",
           "experiment_names", "experiment_info",
           "check_params"]


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    rows: list
    columns: list


def _rotation(angle_deg: float) -> np.ndarray:
    t = math.radians(angle_deg)
    return np.array([[math.cos(t), -math.sin(t)],
                     [math.sin(t), math.cos(t)]])


def _box_grid(box: np.ndarray, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, box.shape[0])


def _equilateral_means(radius: float) -> np.ndarray:
    angles = np.radians(15.0 + np.array([0.0, 120.0, 240.0]))
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def _map_seeds(fn, seeds, jobs):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(fn, seeds))
    else:
        rows = [fn(s) for s in seeds]
    return sorted(rows, key=lambda r: r["seed"])


# ---------------------------------------------------------------------------
# transport experiments
# ---------------------------------------------------------------------------

def _identity_prior(family: str, d: int):
    if family == "gaussian":
        rho = 0.4
        cov = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        return GaussianDistribution(0.1 * np.arange(d), cov)
    if family == "laplace_product":
        return ProductDistribution(
            [Laplace1D(0.2 * i, 1.0 + 0.2 * i) for i in range(d)])
    if family == "gaussian_mixture":
        return ProductDistribution(
            [GaussianMixture1D([0.4, 0.6], [-1.5, 1.2 + 0.3 * i],
                               [0.7, 1.1]) for i in range(d)])
    raise ValueError(f"unknown prior family: {family!r}")


def _run_kr_identity(params, seed, jobs):
    rows = []
    sid = 0
    for family in params["families"]:
        for d in params["dims"]:
            prior = _identity_prior(family, d)
            mapping = kr_transport(prior, prior)
            z = prior.sample(stream(seed, sid), params["n_probes"])
            sid += 1
            sup, rms = identity_deviation(mapping, z)
            rows.append({"family": family, "dim": d, "sup_dev": sup,
                         "rms_dev": rms,
                         "passed": bool(sup < params["tol"])})
    passed = all(r["passed"] for r in rows)
    worst = max(r["sup_dev"] for r in rows)
    return passed, {"max_sup_dev": worst, "tol": params["tol"]}, rows


def _run_kr_gaussian(params, seed, jobs):
    rows = []
    for i in range(params["n_pairs"]):
        rng = stream(seed, i)
        d = int(rng.integers(1, params["max_dim"] + 1))
        def rand_gauss():
            A = 0.5 * rng.standard_normal((d, d))
            return GaussianDistribution(rng.standard_normal(d),
                                        A @ A.T + 0.5 * np.eye(d))
        source, target = rand_gauss(), rand_gauss()
        closed = kr_transport(source, target)
        chain = kr_transport(source, target, method="cdf_chain")
        z = source.sample(rng, params["n_probes"])
        diff = float(np.abs(closed.forward(z) - chain.forward(z)).max())
        rows.append({"pair": i, "dim": d, "sup_diff": diff,
                     "passed": bool(diff < params["tol"])})
    passed = all(r["passed"] for r in rows)
    worst = max(r["sup_diff"] for r in rows)
    return passed, {"max_sup_diff": worst, "tol": params["tol"]}, rows


def _run_ica_comon(params, seed, jobs):
    source = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.3, 1.3)])
    target = ProductDistribution([Logistic1D(-0.2, 0.8), Logistic1D(0.4, 1.1)])
    mapping = kr_transport(source, target)
    probes = source.sample(stream(seed), params["n_probes"])
    report = component_wise_check(mapping, probes, tol=params["tol"])
    # the Jacobian at the sample median should be a diagonal matrix
    J = jacobian_fd(mapping.forward,
                    np.median(probes, axis=0, keepdims=True))[0]
    comon = comon_structure_check(J, tol=params["tol"])
    passed = bool(report.passed and comon.component_wise)
    row = {"max_offdiag": report.max_offdiag, "max_upper": report.max_upper,
           "jacobian_component_wise": bool(comon.component_wise),
           "passed": passed}
    return passed, {"structure": asdict(report),
                    "jacobian_check": asdict(comon)}, [row]


# ---------------------------------------------------------------------------
# linear factor-analysis experiments
# ---------------------------------------------------------------------------

def _run_fa_rotation(params, seed, jobs):
    mu1 = np.asarray(params["mu1"], dtype=float)
    mu2 = np.asarray(params["mu2"], dtype=float)
    gen1 = LinearGenerator(params["loading"])
    gen2, R = rotation_counterexample(mu1, mu2, gen1)
    dev = 0.0
    for mu in (mu1, mu2):
        dev = max(dev, float(np.abs(gen1.forward(mu) - gen2.forward(mu)).max()))
    distance = float(np.linalg.norm(gen1.loading - gen2.loading))
    valid = bool(dev < params["tol_constraint"]
                 and distance > params["min_distance"])
    row = {"constraint_dev": dev, "loading_distance": distance,
           "counterexample_valid": valid}
    summary = {"counterexample_valid": valid, "constraint_dev": dev,
               "loading_distance": distance,
               "rotation": np.asarray(R).tolist()}
    return valid, summary, [row]


def _run_fa_three_env(params, seed, jobs):
    gen = LinearGenerator(params["loading"])
    mus = np.asarray(params["env_means"], dtype=float)
    rows = []
    for count in (2, mus.shape[0]):
        report = solve_multi_env_linear(gen, mus[:count])
        rows.append({"n_envs": count, "contrast_rank": report.contrast_rank,
                     "unique": bool(report.unique),
                     "deviation": (report.deviation
                                   if report.deviation is not None else -1.0)})
    two_env, full = rows[0], rows[-1]
    passed = bool(full["unique"] and 0.0 <= full["deviation"] < params["tol"]
                  and not two_env["unique"])
    return passed, {"deviation": full["deviation"], "tol": params["tol"]}, rows


def _run_expfam_kernel(params, seed, jobs):
    d = 3
    M = np.asarray(params["contrasts"], dtype=float)
    probes = GaussianDistribution(np.zeros(d), np.eye(d)).sample(
        stream(seed), params["n_probes"])
    suff = lambda z: z

    flip = Automorphism.from_matrix(np.diag([1.0, 1.0, -1.0]))
    r_flip = kernel_residual(suff, flip, M, probes)
    fixed = fixed_coordinate_check(flip, [0, 1], probes, tol=1e-10)

    shift = Automorphism.from_matrix(np.eye(d), [params["shift"], 0.0, 0.0])
    r_shift = kernel_residual(suff, shift, M, probes)

    tol = params["tol"]
    rows = [
        {"case": "coordinate_flip", "residual": r_flip,
         "fixed_coords_pass": bool(fixed.passed),
         "passed": bool(r_flip < tol and fixed.passed)},
        {"case": "translation", "residual": r_shift, "fixed_coords_pass": False,
         "passed": bool(r_shift >= params["shift"] - tol)},
    ]
    passed = all(r["passed"] for r in rows)
    return passed, {"flip_residual": r_flip, "shift_residual": r_shift,
                    "fixed_coord_dev": asdict(fixed)}, rows


# ---------------------------------------------------------------------------
# multi-environment estimation experiments
# ---------------------------------------------------------------------------

def _strong_vae_setup(params):
    means = _equilateral_means(params["radius"])
    envset = EnvironmentSet.gaussian_mean_envs(means)
    generator = LinearGenerator(_rotation(params["angle_deg"]),
                                params["offset"])
    return envset, generator


def _split_halves(data):
    """Per-environment disjoint halves of a dataset, as views of ``data.x``.

    Half a takes the first ``n_per_env // 2`` rows of each environment
    block and half b the next as many.
    """
    h = data.n_per_env // 2
    return EnvironmentData(data.x[:, :h]), EnvironmentData(data.x[:, h:2 * h])


def _fit_pair_deviation(envset, generator, n_per_env, rng, grid=21):
    """Sup identity deviation of the transform between two half-data fits."""
    data = generate_environment_data(envset, generator, 2 * n_per_env, rng)
    half_a, half_b = _split_halves(data)
    fit_a = fit_env_affine_generator(half_a, envset)
    fit_b = fit_env_affine_generator(half_b, envset)
    transform = generator_transform(fit_a, fit_b)
    box = interdecile_box(GaussianDistribution(np.zeros(2), np.eye(2)))
    sup, _ = identity_deviation(transform, _box_grid(box, grid))
    return sup, fit_a, fit_b


def _run_strong_vae(params, seed, jobs):
    envset, generator = _strong_vae_setup(params)
    config = validate_strong_vae_config(envset)
    n = params["n_per_env"]
    tol = 5.0 / math.sqrt(n)

    def one_seed(s):
        rng = stream(seed, s)
        sup, _, _ = _fit_pair_deviation(envset, generator, n, rng,
                                        grid=params["grid"])
        return {"seed": s, "sup_dev": sup, "tol": tol,
                "passed": bool(sup < tol)}

    rows = _map_seeds(one_seed, range(params["n_seeds"]), jobs)
    n_pass = sum(r["passed"] for r in rows)
    passed = bool(config.passed and n_pass >= params["min_passes"])
    summary = {"config_valid": config.passed, "n_pass": n_pass,
               "n_seeds": params["n_seeds"], "tol": tol,
               "max_sup_dev": max(r["sup_dev"] for r in rows)}
    return passed, summary, rows


def _run_ivae_affine(params, seed, jobs):
    envset, generator = _strong_vae_setup(params)
    n = params["n_per_env"]
    rng = stream(seed)
    frozen_dev, fit_a, _ = _fit_pair_deviation(envset, generator, n, rng)

    # lab B re-anchors on its own learned means: an affine re-gauging
    G = np.asarray(params["gauge_matrix"], dtype=float)
    h = np.asarray(params["gauge_offset"], dtype=float)
    means_b = envset.eta_matrix @ G.T + h
    envset_b = EnvironmentSet.gaussian_mean_envs(means_b)

    data = generate_environment_data(envset, generator, n, rng)
    fit_b = fit_env_affine_generator(data, envset_b)

    x = data.x.reshape(-1, data.x.shape[-1])
    relation = affine_relation_fit(fit_a.inverse(x), fit_b.inverse(x))

    matrix_err = float(np.abs(relation.matrix.T - G).max())
    offset_err = float(np.abs(relation.offset - h).max())
    passed = bool(relation.residual < params["resid_factor"] * frozen_dev
                  and relation.condition_number < params["max_cond"])
    row = {"residual": relation.residual,
           "cond_L": relation.condition_number, "frozen_dev": frozen_dev,
           "matrix_err": matrix_err, "offset_err": offset_err,
           "passed": passed}
    return passed, {"relation": asdict(relation),
                    "frozen_dev": frozen_dev}, [row]


def _run_two_labs(params, seed, jobs):
    n = params["n"]
    angle = params["angle_deg"]
    rows = []

    def audit_cell(name, prior):
        gen_a = LinearGenerator(np.eye(2))
        gen_b = LinearGenerator(_rotation(-angle))  # f_a composed after undoing R
        report = indeterminacy_audit(ModelParams(gen_a, prior),
                                     ModelParams(gen_b, prior),
                                     n, stream(seed, len(rows)),
                                     alpha=params["alpha"])
        ratio = float(max(np.max(report.forward_check.statistics)
                          / report.forward_check.critical_value,
                          np.max(report.inverse_check.statistics)
                          / report.inverse_check.critical_value))
        return report, ratio

    gauss_report, gauss_ratio = audit_cell(
        "gaussian", GaussianDistribution(np.zeros(2), np.eye(2)))
    cell_a = bool(gauss_report.pushforward_pass
                  and not gauss_report.structure["is_identity_ae"])
    rows.append({"cell": "gaussian_rotation",
                 "pushforward_pass": bool(gauss_report.pushforward_pass),
                 "identity_sup_dev": gauss_report.identity_sup_dev,
                 "max_ks_ratio": gauss_ratio, "fit_dev": -1.0,
                 "passed": cell_a})

    laplace = ProductDistribution([Laplace1D(), Laplace1D()])
    lap_report, lap_ratio = audit_cell("laplace", laplace)
    cell_b = bool(not lap_report.pushforward_pass
                  and lap_ratio >= params["ks_ratio_min"])
    rows.append({"cell": "laplace_rotation",
                 "pushforward_pass": bool(lap_report.pushforward_pass),
                 "identity_sup_dev": lap_report.identity_sup_dev,
                 "max_ks_ratio": lap_ratio, "fit_dev": -1.0,
                 "passed": cell_b})

    # two labs fit the same documented model on disjoint data halves
    prior = GaussianDistribution(np.zeros(2), np.eye(2))
    model = AffineMap(params["loading"], [0.0, 0.0])
    rng = stream(seed, 17)
    x = model.forward(prior.sample(rng, 2 * n))
    fit_1 = fit_gaussian_kr(x[:n], prior)
    fit_2 = fit_gaussian_kr(x[n:], prior)
    transform = generator_transform(fit_1, fit_2)
    sup, _ = identity_deviation(transform,
                                _box_grid(interdecile_box(prior), 21))
    fit_tol = 10.0 / math.sqrt(n)
    cell_c = bool(sup < fit_tol)
    rows.append({"cell": "fit_halves", "pushforward_pass": True,
                 "identity_sup_dev": sup, "max_ks_ratio": -1.0,
                 "fit_dev": sup, "passed": cell_c})

    passed = cell_a and cell_b and cell_c
    summary = {"gaussian_ratio": gauss_ratio, "laplace_ratio": lap_ratio,
               "fit_dev": sup, "fit_tol": fit_tol}
    return passed, summary, rows


# ---------------------------------------------------------------------------
# task experiments
# ---------------------------------------------------------------------------

def _embedding_model():
    gen = LinearGenerator(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    prior = GaussianDistribution(np.zeros(2), np.eye(2))
    return ModelParams(gen, prior, name="embedding")


def _run_task_shift(params, seed, jobs):
    theta = _embedding_model()
    task = latent_shift_task(params["delta"], params["k"])
    obs = np.asarray(params["obs"], dtype=float)
    rot = Automorphism.from_matrix([[0.0, -1.0], [1.0, 0.0]])
    rng = stream(seed)

    rot_report = task_identifiability_check(task, theta, [rot], obs,
                                            tol=1e-6, rng=rng)
    id_report = task_identifiability_check(
        task, theta, [Automorphism.identity(2)], obs, tol=1e-6, rng=rng)

    # translations commute with the shift; certification would reject them
    # (no probability prior is translation invariant), so compare raw outputs
    translation = Automorphism.from_matrix(np.eye(2), [0.7, -0.4])
    base = task.evaluate(theta, obs, task.select(theta, obs))
    twisted = act_on_params(translation, theta)
    moved = task.evaluate(twisted, obs, task.select(twisted, obs))
    trans_dist = float(task.output_metric(base, moved))

    target = math.sqrt(2.0)
    rows = [
        {"cell": "rotation", "distance": rot_report.max_distance,
         "identifiable": bool(rot_report.identifiable),
         "passed": bool(abs(rot_report.max_distance - target) < params["tol"]
                        and not rot_report.identifiable)},
        {"cell": "identity_only", "distance": id_report.max_distance,
         "identifiable": bool(id_report.identifiable),
         "passed": bool(id_report.max_distance == 0.0
                        and id_report.identifiable)},
        {"cell": "translation_raw", "distance": trans_dist,
         "identifiable": bool(trans_dist < 1e-12),
         "passed": bool(trans_dist < 1e-12)},
    ]
    passed = all(r["passed"] for r in rows)
    return passed, {"rotation_distance": rot_report.max_distance,
                    "expected": target}, rows


def _run_task_indep(params, seed, jobs):
    n = params["n"]
    prior = ProductDistribution([Laplace1D(), Laplace1D()])
    gen = AffineMap(params["loading"], [0.0, 0.0])
    theta = ModelParams(gen, prior, name="tmi-laplace")
    rng = stream(seed)
    z = prior.sample(rng, n)
    obs = gen.forward(z)

    task = independence_test_task(tuple(params["pair"]), n)
    flip = Automorphism.from_matrix(-np.eye(2))
    report = task_identifiability_check(task, theta, [flip], obs,
                                        tol=1e-15, rng=rng)

    null_stat = spearman_abs(obs[:, 0], z[:, 1])
    perfect_stat = spearman_abs(z[:, 0], z[:, 0])
    rows = [
        {"cell": "flip_invariance", "value": report.max_distance,
         "passed": bool(report.max_distance == 0.0)},
        {"cell": "independent_pair", "value": null_stat,
         "passed": bool(null_stat < params["null_bound"])},
        {"cell": "perfect_dependence", "value": perfect_stat,
         "passed": bool(perfect_stat == 1.0)},
    ]
    passed = all(r["passed"] for r in rows)
    return passed, {"flip_distance": report.max_distance,
                    "null_stat": null_stat}, rows


def _run_multiview(params, seed, jobs):
    prior = GaussianDistribution(np.zeros(2), np.eye(2))
    n = params["n"]
    tol = params["tol"]
    R = _rotation(params["angle_deg"])

    tmi_view = AffineMap([[1.0, 0.0], [0.4, 1.0]], [0.0, 0.0])
    free_view = LinearGenerator(_rotation(params["angle_deg"])
                                @ np.array([[1.3, 0.2], [0.1, 0.8]]))

    model_a = MultiViewModel({"tmi": tmi_view, "free": free_view})
    model_same = MultiViewModel({"tmi": tmi_view, "free": free_view})
    pinned = verify_multiview(model_a, model_same, prior, n,
                              stream(seed, 0), tol=tol)

    lin_a = MultiViewModel({"tmi": LinearGenerator([[1.0, 0.0], [0.4, 1.0]]),
                            "free": free_view})
    lin_b = MultiViewModel(
        {"tmi": LinearGenerator(lin_a.generators["tmi"].loading @ R.T),
         "free": LinearGenerator(free_view.loading @ R.T)})
    rotated = verify_multiview(lin_a, lin_b, prior, n, stream(seed, 1), tol=tol)

    rows = [
        {"config": "tmi_plus_free", "identified":
            bool(pinned.structure["is_identity_ae"]),
         "best_view_dev": pinned.identity_sup_dev,
         "max_disagreement": pinned.details["max_disagreement"],
         "passed": bool(pinned.structure["is_identity_ae"]
                        and pinned.details["max_disagreement"] < tol)},
        {"config": "consistent_rotation", "identified":
            bool(rotated.structure["is_identity_ae"]),
         "best_view_dev": rotated.identity_sup_dev,
         "max_disagreement": rotated.details["max_disagreement"],
         "passed": bool(not rotated.structure["is_identity_ae"])},
    ]
    passed = all(r["passed"] for r in rows)
    return passed, {"pinned": asdict(pinned),
                    "rotated": asdict(rotated)}, rows


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass
class ExperimentDef:
    runner: object
    anchor: str
    defaults: dict
    columns: list
    #: the shape of each list default, as ``_fits`` reads it
    shapes: dict = field(default_factory=dict)


EXPERIMENTS = {
    "kr-identity": ExperimentDef(
        _run_kr_identity,
        "self-transport of a fully supported law is the identity map",
        {"dims": [1, 2, 3],
         "families": ["gaussian", "laplace_product", "gaussian_mixture"],
         "n_probes": 1000, "tol": 1e-6},
        ["family", "dim", "sup_dev", "rms_dev", "passed"],
        {"dims": ("k",), "families": ("f",)}),
    "kr-gaussian": ExperimentDef(
        _run_kr_gaussian,
        "conditional-CDF recursion between Gaussians matches the closed-form "
        "Cholesky map",
        {"n_pairs": 10, "max_dim": 4, "n_probes": 1000, "tol": 1e-5},
        ["pair", "dim", "sup_diff", "passed"]),
    "ica-comon": ExperimentDef(
        _run_ica_comon,
        "transport between product laws acts on each coordinate separately",
        {"n_probes": 200, "tol": 1e-4},
        ["max_offdiag", "max_upper", "jacobian_component_wise", "passed"]),
    "fa-rotation": ExperimentDef(
        _run_fa_rotation,
        "two matched environments admit a genuinely different reflected "
        "loading with identical observation moments",
        {"mu1": [0.0, 0.0], "mu2": [1.0, 0.0],
         "loading": [[1.0, 0.0], [0.5, 1.0], [-0.25, 0.7]],
         "tol_constraint": 1e-12, "min_distance": 0.5},
        ["constraint_dev", "loading_distance", "counterexample_valid"],
        {"mu1": (2,), "mu2": (2,), "loading": ("x", 2)}),
    "fa-three-env": ExperimentDef(
        _run_fa_three_env,
        "environment mean contrasts spanning the latent space pin the "
        "loading uniquely",
        {"env_means": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
         "loading": [[1.0, 0.0], [0.5, 1.0], [-0.25, 0.7]], "tol": 1e-8},
        ["n_envs", "contrast_rank", "unique", "deviation"],
        {"env_means": ("e", "d"), "loading": ("x", "d")}),
    "expfam-kernel": ExperimentDef(
        _run_expfam_kernel,
        "statistic differences under an equivalence transform fall in the "
        "kernel of the parameter contrasts",
        {"contrasts": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
         "n_probes": 500, "tol": 1e-12, "shift": 0.1},
        ["case", "residual", "fixed_coords_pass", "passed"],
        {"contrasts": ("c", 3)}),
    "strong-vae": ExperimentDef(
        _run_strong_vae,
        "with spanning environment means, independent fits on disjoint data "
        "recover the same generator",
        {"n_seeds": 20, "n_per_env": 100000, "radius": 3.0,
         "angle_deg": 30.0, "offset": [0.5, -0.3], "min_passes": 19,
         "grid": 21},
        ["seed", "sup_dev", "tol", "passed"], {"offset": (2,)}),
    "ivae-affine": ExperimentDef(
        _run_ivae_affine,
        "re-anchoring the prior means changes recovered latents only by an "
        "invertible affine map",
        {"n_per_env": 100000, "radius": 3.0, "angle_deg": 30.0,
         "offset": [0.5, -0.3], "gauge_matrix": [[1.2, 0.3], [-0.2, 0.9]],
         "gauge_offset": [0.4, -1.0], "max_cond": 1e3, "resid_factor": 10.0},
        ["residual", "cond_L", "frozen_dev", "matrix_err", "offset_err",
         "passed"],
        {"offset": (2,), "gauge_matrix": (2, 2), "gauge_offset": (2,)}),
    "two-labs": ExperimentDef(
        _run_two_labs,
        "equivalent fits differ by a prior-preserving transform; "
        "inequivalent ones are caught distributionally",
        {"n": 100000, "angle_deg": 45.0, "alpha": 0.01, "ks_ratio_min": 3.0,
         "loading": [[1.0, 0.0], [0.6, 1.0]]},
        ["cell", "pushforward_pass", "identity_sup_dev", "max_ks_ratio",
         "fit_dev", "passed"], {"loading": (2, 2)}),
    "task-shift": ExperimentDef(
        _run_task_shift,
        "a latent-shift task changes output under a certified rotation but "
        "not under the identity",
        {"delta": 1.0, "k": 0, "obs": [[1.0, 0.0, 0.0]], "tol": 1e-9},
        ["cell", "distance", "identifiable", "passed"], {"obs": ("n", 3)}),
    "task-indep": ExperimentDef(
        _run_task_indep,
        "a rank-correlation task is exactly blind to componentwise monotone "
        "relabelings",
        {"n": 1000, "pair": [0, 0], "loading": [[1.0, 0.0], [0.6, 1.0]],
         "null_bound": 0.08},
        ["cell", "value", "passed"], {"pair": (2,), "loading": (2, 2)}),
    "multiview": ExperimentDef(
        _run_multiview,
        "one constrained view pins the shared latent for every view",
        {"n": 2000, "tol": 1e-6, "angle_deg": 30.0},
        ["config", "identified", "best_view_dev", "max_disagreement",
         "passed"]),
}


def experiment_names():
    return list(EXPERIMENTS)


def experiment_info(name: str) -> dict:
    d = EXPERIMENTS[name]
    return {"name": name, "anchor": d.anchor, "defaults": d.defaults,
            "columns": d.columns}


#: override types accepted for a default of each type; any other default
#: (a list or a string) takes only its own type
_ACCEPTED_TYPES = {int: (int,), float: (int, float)}


def _leaves(value):
    """The scalars of a value, read through any nesting of lists."""
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _fits(value, shape, sizes) -> bool:
    """Is the nested list ``value`` of ``shape``?

    An int axis takes that length.  A named axis takes any length >= 1, and
    then only that length wherever the name recurs: ``sizes`` binds it.
    """
    if not shape:
        return not isinstance(value, list)
    if not isinstance(value, list):
        return False
    axis = shape[0]
    n = sizes.setdefault(axis, len(value)) if isinstance(axis, str) else axis
    return len(value) == n >= 1 and all(_fits(v, shape[1:], sizes)
                                        for v in value)


#: open interval each named float param must lie in, in every experiment
#: that registers it: tolerances and bounds are positive, alpha a level
_RANGES = {key: (0.0, math.inf)
           for key in ("tol", "tol_constraint", "min_distance", "max_cond",
                       "resid_factor", "ks_ratio_min", "null_bound")}
_RANGES["alpha"] = (0.0, 1.0)


def check_params(name: str, params: dict | None) -> None:
    """Reject overrides that ``name``'s registered defaults do not admit.

    Raises ``KeyError`` for an unregistered experiment and ``ValueError``
    when ``params`` is not a mapping, names a key with no default, gives a
    value whose type differs from its default's (an int where a float is
    registered is accepted, a bool where an int is registered is not) or,
    for a list, an entry whose type differs by the same rule from the
    default's entries, gives a value below 1 where the default is a
    positive int, since every such param is a count or a size, gives a
    value outside its open interval in ``_RANGES``, or leaves a list param,
    overridden or not, off its shape in ``ExperimentDef.shapes``.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment: {name!r}")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"{name}: params must be a mapping")
    defaults = EXPERIMENTS[name].defaults
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ValueError(f"{name}: unknown params {unknown}")
    for key, value in (params or {}).items():
        default = defaults[key]
        accepted = _ACCEPTED_TYPES.get(type(default), (type(default),))
        if type(value) not in accepted:
            raise ValueError(f"{name}: {key} must be of type "
                             f"{type(default).__name__}, got {value!r}")
        if type(default) is list:
            entry_type = type(next(_leaves(default)))
            accepted = _ACCEPTED_TYPES.get(entry_type, (entry_type,))
            for entry in _leaves(value):
                if type(entry) not in accepted:
                    raise ValueError(f"{name}: {key} entries must be of type "
                                     f"{entry_type.__name__}, got {entry!r}")
        if type(default) is int and default >= 1 and value < 1:
            raise ValueError(f"{name}: {key} must be >= 1, got {value}")
        lo, hi = _RANGES.get(key, (None, None))
        if lo is not None and not lo < value < hi:
            raise ValueError(f"{name}: {key} must lie in ({lo:g}, {hi:g}), "
                             f"got {value}")
    sizes: dict = {}
    for key, shape in EXPERIMENTS[name].shapes.items():
        value = (params or {}).get(key, defaults[key])
        want = tuple(sizes.get(axis, axis) for axis in shape)
        if not _fits(value, shape, sizes):
            raise ValueError(f"{name}: {key} must have shape {want}, "
                             f"got {value!r}")


def run_experiment(name: str, params: dict | None = None, seed: int = 7,
                   jobs: int = 1) -> ExperimentResult:
    """Run one registered experiment and return its result bundle.

    ``params`` overrides the registered defaults key by key; unknown
    experiment or parameter names raise (see ``check_params``) before any
    computation.
    """
    check_params(name, params)
    spec = EXPERIMENTS[name]
    effective = dict(spec.defaults)
    effective.update(params or {})
    passed, summary, rows = spec.runner(effective, seed, max(1, jobs))
    return ExperimentResult(name=name, passed=bool(passed), summary=summary,
                            rows=rows, columns=spec.columns)
