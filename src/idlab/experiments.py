"""Registered experiments: each one checks a claim end to end.

An experiment's setup builds everything its claim needs from the params and
draws nothing, so a config it cannot build is rejected before any
computation.  It returns ``run(seed)``, which draws, fits and checks, and
gives a pass/fail verdict, a JSON-serializable summary and plot-ready CSV
rows with a fixed column set.  ``check_params`` runs the setup.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .envs import (EnvironmentSet, ModelParams, affine_relation_fit,
                   fit_env_affine_generator, fit_gaussian_kr,
                   validate_strong_vae_config, verify_multiview,
                   MultiViewModel, _affine_design)
from .errors import IdlabError
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


def _bulk_grid(per_axis: int) -> np.ndarray:
    """``per_axis`` squared points on the standard normal's interdecile box."""
    box = interdecile_box(GaussianDistribution(np.zeros(2), np.eye(2)))
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)


def _equilateral_means(radius: float) -> np.ndarray:
    angles = np.radians(15.0 + np.array([0.0, 120.0, 240.0]))
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


@contextmanager
def _rejected(key: str):
    """Name the param ``key`` in a rejection by a constructor it feeds."""
    try:
        yield
    except (ValueError, IdlabError) as exc:
        raise ValueError(f"{key} rejected: {exc}") from exc


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


def _kr_identity(params):
    cells = []
    for family in params["families"]:
        for d in params["dims"]:
            prior = _identity_prior(family, d)
            cells.append((family, d, prior, kr_transport(prior, prior)))

    def run(seed):
        rows = []
        for sid, (family, d, prior, mapping) in enumerate(cells):
            z = prior.sample(stream(seed, sid), params["n_probes"])
            sup, rms = identity_deviation(mapping, z)
            rows.append({"family": family, "dim": d, "sup_dev": sup,
                         "rms_dev": rms, "passed": bool(sup < params["tol"])})
        passed = all(r["passed"] for r in rows)
        worst = max(r["sup_dev"] for r in rows)
        return passed, {"max_sup_dev": worst, "tol": params["tol"]}, rows
    return run


def _kr_gaussian(params):
    def run(seed):
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
    return run


def _ica_comon(params):
    source = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.3, 1.3)])
    target = ProductDistribution([Logistic1D(-0.2, 0.8), Logistic1D(0.4, 1.1)])
    mapping = kr_transport(source, target)

    def run(seed):
        probes = source.sample(stream(seed), params["n_probes"])
        report = component_wise_check(mapping, probes, tol=params["tol"])
        # the Jacobian at the sample median should be a diagonal matrix
        J = jacobian_fd(mapping.forward,
                        np.median(probes, axis=0, keepdims=True))[0]
        comon = comon_structure_check(J, tol=params["tol"])
        passed = bool(report.passed and comon.component_wise)
        row = {"max_offdiag": report.max_offdiag,
               "max_upper": report.max_upper,
               "jacobian_component_wise": bool(comon.component_wise),
               "passed": passed}
        return passed, {"structure": asdict(report),
                        "jacobian_check": asdict(comon)}, [row]
    return run


# ---------------------------------------------------------------------------
# linear factor-analysis experiments
# ---------------------------------------------------------------------------

def _fa_rotation(params):
    mu1 = np.asarray(params["mu1"], dtype=float)
    mu2 = np.asarray(params["mu2"], dtype=float)
    with _rejected("loading"):
        gen1 = LinearGenerator(params["loading"])
    gen2, R = rotation_counterexample(mu1, mu2, gen1)

    def run(seed):
        dev = max(float(np.abs(gen1.forward(mu) - gen2.forward(mu)).max())
                  for mu in (mu1, mu2))
        distance = float(np.linalg.norm(gen1.loading - gen2.loading))
        valid = bool(dev < params["tol_constraint"]
                     and distance > params["min_distance"])
        row = {"constraint_dev": dev, "loading_distance": distance,
               "counterexample_valid": valid}
        summary = {"counterexample_valid": valid, "constraint_dev": dev,
                   "loading_distance": distance,
                   "rotation": np.asarray(R).tolist()}
        return valid, summary, [row]
    return run


def _fa_three_env(params):
    with _rejected("loading"):
        gen = LinearGenerator(params["loading"])
    mus = np.asarray(params["env_means"], dtype=float)
    if mus.shape[0] < 2:
        raise ValueError("env_means needs at least 2 rows")

    def run(seed):
        rows = []
        for count in (2, mus.shape[0]):
            rep = solve_multi_env_linear(gen, mus[:count])
            rows.append({"n_envs": count, "contrast_rank": rep.contrast_rank,
                         "unique": bool(rep.unique),
                         "deviation": (-1.0 if rep.deviation is None
                                       else rep.deviation)})
        two_env, full = rows[0], rows[-1]
        passed = bool(full["unique"]
                      and 0.0 <= full["deviation"] < params["tol"]
                      and not two_env["unique"])
        return passed, {"deviation": full["deviation"],
                        "tol": params["tol"]}, rows
    return run


def _expfam_kernel(params):
    d = 3
    M = np.asarray(params["contrasts"], dtype=float)
    prior = GaussianDistribution(np.zeros(d), np.eye(d))
    flip = Automorphism.from_matrix(np.diag([1.0, 1.0, -1.0]))
    shift = Automorphism.from_matrix(np.eye(d), [params["shift"], 0.0, 0.0])
    suff = lambda z: z
    tol = params["tol"]

    def run(seed):
        probes = prior.sample(stream(seed), params["n_probes"])
        r_flip = kernel_residual(suff, flip, M, probes)
        fixed = fixed_coordinate_check(flip, [0, 1], probes, tol=1e-10)
        r_shift = kernel_residual(suff, shift, M, probes)
        rows = [
            {"case": "coordinate_flip", "residual": r_flip,
             "fixed_coords_pass": bool(fixed.passed),
             "passed": bool(r_flip < tol and fixed.passed)},
            {"case": "translation", "residual": r_shift,
             "fixed_coords_pass": False,
             "passed": bool(r_shift >= params["shift"] - tol)},
        ]
        passed = all(r["passed"] for r in rows)
        return passed, {"flip_residual": r_flip, "shift_residual": r_shift,
                        "fixed_coord_dev": asdict(fixed)}, rows
    return run


# ---------------------------------------------------------------------------
# multi-environment estimation experiments
# ---------------------------------------------------------------------------

def _mean_envs(key: str, means) -> EnvironmentSet:
    """Gaussian-mean environments at means the mean fit can pin."""
    with _rejected(key):
        _affine_design(means)
    return EnvironmentSet.gaussian_mean_envs(means)


def _exact_block_means(envset, generator, n_per_env, rng):
    """Means of ``n_per_env`` rows per environment, from their exact law:
    for z ~ N(mu_e, I) and x = W z + b the mean of h rows is
    W (mu_e + xi / sqrt(h)) + b with xi ~ N(0, I)."""
    mus = envset.eta_matrix  # a Gaussian-mean set's eta rows are its means
    return generator.forward(mus + rng.standard_normal(mus.shape)
                             / math.sqrt(n_per_env))


def _exact_moments(model: AffineMap, n, rng):
    """Mean and ddof-1 covariance of ``n`` rows x = M z + b, z ~ N(0, I),
    from their exact law: the mean is M xi / sqrt(n) + b with xi ~ N(0, I),
    and the covariance B B^T / (n - 1) with B = M A, where A is Bartlett's
    lower triangle: A_ii = sqrt(chi2(n - 1 - i)), N(0, 1) below."""
    d = model.dim
    mean = model.matrix @ rng.standard_normal(d) / math.sqrt(n) + model.offset
    A = np.zeros((d, d))
    A[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    A[np.diag_indices(d)] = np.sqrt(rng.chisquare(n - 1 - np.arange(d)))
    B = model.matrix @ A
    return mean, B @ B.T / (n - 1)


def _fit_pair_deviation(envset, generator, n_per_env, rng, probes):
    """Sup identity deviation on ``probes`` between two independent fits."""
    fit_a, fit_b = (fit_env_affine_generator(_exact_block_means(
        envset, generator, n_per_env, rng), envset) for _ in range(2))
    sup, _ = identity_deviation(generator_transform(fit_a, fit_b), probes)
    return sup, fit_a, fit_b


def _strong_vae(params):
    envset = _mean_envs("radius", _equilateral_means(params["radius"]))
    generator = LinearGenerator(_rotation(params["angle_deg"]),
                                params["offset"])
    config = validate_strong_vae_config(envset)
    n = params["n_per_env"]
    tol = 5.0 / math.sqrt(n)
    probes = _bulk_grid(params["grid"])

    def run(seed):
        rows = []
        for s in range(params["n_seeds"]):
            sup, _, _ = _fit_pair_deviation(envset, generator, n,
                                            stream(seed, s), probes)
            rows.append({"seed": s, "sup_dev": sup, "tol": tol,
                         "passed": bool(sup < tol)})
        n_pass = sum(r["passed"] for r in rows)
        passed = bool(config.passed and n_pass >= params["min_passes"])
        summary = {"config_valid": config.passed, "n_pass": n_pass,
                   "n_seeds": params["n_seeds"], "tol": tol,
                   "max_sup_dev": max(r["sup_dev"] for r in rows)}
        return passed, summary, rows
    return run


def _ivae_affine(params):
    means = _equilateral_means(params["radius"])
    # lab B re-anchors on its own learned means: an affine re-gauging
    G = np.asarray(params["gauge_matrix"], dtype=float)
    h = np.asarray(params["gauge_offset"], dtype=float)
    envset = _mean_envs("radius", means)
    envset_b = _mean_envs("gauge_matrix", means @ G.T + h)
    generator = LinearGenerator(_rotation(params["angle_deg"]),
                                params["offset"])
    n = params["n_per_env"]
    probes = _bulk_grid(21)
    # the relation between two affine fits is exact, so any rows show it;
    # these are the probes around each environment mean, where the data lie
    x = generator.forward((means[:, None, :] + probes).reshape(-1, 2))

    def run(seed):
        rng = stream(seed)
        frozen_dev, fit_a, _ = _fit_pair_deviation(envset, generator, n, rng,
                                                   probes)
        fit_b = fit_env_affine_generator(
            _exact_block_means(envset, generator, n, rng), envset_b)
        relation = affine_relation_fit(fit_a.inverse(x), fit_b.inverse(x))

        passed = bool(relation.residual < params["resid_factor"] * frozen_dev
                      and relation.condition_number < params["max_cond"])
        row = {"residual": relation.residual,
               "cond_L": relation.condition_number, "frozen_dev": frozen_dev,
               "matrix_err": float(np.abs(relation.matrix.T - G).max()),
               "offset_err": float(np.abs(relation.offset - h).max()),
               "passed": passed}
        return passed, {"relation": asdict(relation),
                        "frozen_dev": frozen_dev}, [row]
    return run


def _two_labs(params):
    n = params["n"]
    gauss = GaussianDistribution(np.zeros(2), np.eye(2))
    laplace = ProductDistribution([Laplace1D(), Laplace1D()])
    gen_a = LinearGenerator(np.eye(2))
    # f_a composed after undoing R
    gen_b = LinearGenerator(_rotation(-params["angle_deg"]))
    # two labs fit the same documented model on disjoint data halves
    with _rejected("loading"):
        model = AffineMap(params["loading"], [0.0, 0.0])
    if n < 20:  # a moment fit asks for 10 rows per coordinate in a half
        raise ValueError(f"n must be >= 20 for the moment fits, got {n}")
    probes = _bulk_grid(21)
    fit_tol = 10.0 / math.sqrt(n)

    def run(seed):
        def audit_cell(sid, prior):
            report = indeterminacy_audit(ModelParams(gen_a, prior),
                                         ModelParams(gen_b, prior),
                                         n, stream(seed, sid),
                                         alpha=params["alpha"])
            ratio = float(max(np.max(report.forward_check.statistics)
                              / report.forward_check.critical_value,
                              np.max(report.inverse_check.statistics)
                              / report.inverse_check.critical_value))
            return report, ratio

        gauss_report, gauss_ratio = audit_cell(0, gauss)
        cell_a = bool(gauss_report.pushforward_pass
                      and not gauss_report.structure["is_identity_ae"])
        lap_report, lap_ratio = audit_cell(1, laplace)
        cell_b = bool(not lap_report.pushforward_pass
                      and lap_ratio >= params["ks_ratio_min"])

        rng = stream(seed, 17)
        halves = [_exact_moments(model, n, rng) for _ in range(2)]
        fit_1, fit_2 = (fit_gaussian_kr(None, gauss, mean=mean, cov=cov)
                        for mean, cov in halves)
        sup, _ = identity_deviation(generator_transform(fit_1, fit_2), probes)
        cell_c = bool(sup < fit_tol)

        rows = [
            {"cell": "gaussian_rotation",
             "pushforward_pass": bool(gauss_report.pushforward_pass),
             "identity_sup_dev": gauss_report.identity_sup_dev,
             "max_ks_ratio": gauss_ratio, "fit_dev": -1.0, "passed": cell_a},
            {"cell": "laplace_rotation",
             "pushforward_pass": bool(lap_report.pushforward_pass),
             "identity_sup_dev": lap_report.identity_sup_dev,
             "max_ks_ratio": lap_ratio, "fit_dev": -1.0, "passed": cell_b},
            {"cell": "fit_halves", "pushforward_pass": True,
             "identity_sup_dev": sup, "max_ks_ratio": -1.0,
             "fit_dev": sup, "passed": cell_c},
        ]
        passed = cell_a and cell_b and cell_c
        summary = {"gaussian_ratio": gauss_ratio, "laplace_ratio": lap_ratio,
                   "fit_dev": sup, "fit_tol": fit_tol}
        return passed, summary, rows
    return run


# ---------------------------------------------------------------------------
# task experiments
# ---------------------------------------------------------------------------

def _task_shift(params):
    gen = LinearGenerator(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    theta = ModelParams(gen, GaussianDistribution(np.zeros(2), np.eye(2)),
                        name="embedding")
    task = latent_shift_task(params["delta"], params["k"], gen.latent_dim)
    obs = np.asarray(params["obs"], dtype=float)
    rot = Automorphism.from_matrix([[0.0, -1.0], [1.0, 0.0]])
    # translations commute with the shift; certification would reject them
    # (no probability prior is translation invariant), so compare raw outputs
    twisted = act_on_params(
        Automorphism.from_matrix(np.eye(2), [0.7, -0.4]), theta)
    target = math.sqrt(2.0)

    def run(seed):
        rng = stream(seed)
        rot_report = task_identifiability_check(task, theta, [rot], obs,
                                                tol=1e-6, rng=rng)
        id_report = task_identifiability_check(
            task, theta, [Automorphism.identity(2)], obs, tol=1e-6, rng=rng)
        base = task.evaluate(theta, obs, task.select(theta, obs))
        moved = task.evaluate(twisted, obs, task.select(twisted, obs))
        trans_dist = float(task.output_metric(base, moved))
        rows = [
            {"cell": "rotation", "distance": rot_report.max_distance,
             "identifiable": bool(rot_report.identifiable),
             "passed": bool(abs(rot_report.max_distance - target)
                            < params["tol"]
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
    return run


def _task_indep(params):
    n = params["n"]
    prior = ProductDistribution([Laplace1D(), Laplace1D()])
    with _rejected("loading"):
        gen = AffineMap(params["loading"], [0.0, 0.0])
    theta = ModelParams(gen, prior, name="tmi-laplace")
    task = independence_test_task(tuple(params["pair"]), n, gen.dim)
    flip = Automorphism.from_matrix(-np.eye(2))

    def run(seed):
        rng = stream(seed)
        z = prior.sample(rng, n)
        obs = gen.forward(z)
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
    return run


def _multiview(params):
    prior = GaussianDistribution(np.zeros(2), np.eye(2))
    n = params["n"]
    tol = params["tol"]
    R = _rotation(params["angle_deg"])
    tmi_view = AffineMap([[1.0, 0.0], [0.4, 1.0]], [0.0, 0.0])
    free_view = LinearGenerator(R @ np.array([[1.3, 0.2], [0.1, 0.8]]))
    model_a = MultiViewModel({"tmi": tmi_view, "free": free_view})
    lin_a = MultiViewModel({"tmi": LinearGenerator([[1.0, 0.0], [0.4, 1.0]]),
                            "free": free_view})
    lin_b = MultiViewModel(
        {"tmi": LinearGenerator(lin_a.generators["tmi"].loading @ R.T),
         "free": LinearGenerator(free_view.loading @ R.T)})

    def run(seed):
        pinned = verify_multiview(model_a, model_a, prior, n,
                                  stream(seed, 0), tol=tol)
        rotated = verify_multiview(lin_a, lin_b, prior, n, stream(seed, 1),
                                   tol=tol)
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
    return run


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass
class ExperimentDef:
    #: ``setup(params)`` returns ``run(seed) -> (passed, summary, rows)``
    setup: object
    anchor: str
    defaults: dict
    columns: list
    #: the shape of each list default, as ``_fits`` reads it
    shapes: dict = field(default_factory=dict)


EXPERIMENTS = {
    "kr-identity": ExperimentDef(
        _kr_identity,
        "self-transport of a fully supported law is the identity map",
        {"dims": [1, 2, 3],
         "families": ["gaussian", "laplace_product", "gaussian_mixture"],
         "n_probes": 1000, "tol": 1e-6},
        ["family", "dim", "sup_dev", "rms_dev", "passed"],
        {"dims": ("k",), "families": ("f",)}),
    "kr-gaussian": ExperimentDef(
        _kr_gaussian,
        "conditional-CDF recursion between Gaussians matches the closed-form "
        "Cholesky map",
        {"n_pairs": 10, "max_dim": 4, "n_probes": 1000, "tol": 1e-5},
        ["pair", "dim", "sup_diff", "passed"]),
    "ica-comon": ExperimentDef(
        _ica_comon,
        "transport between product laws acts on each coordinate separately",
        {"n_probes": 200, "tol": 1e-4},
        ["max_offdiag", "max_upper", "jacobian_component_wise", "passed"]),
    "fa-rotation": ExperimentDef(
        _fa_rotation,
        "two matched environments admit a genuinely different reflected "
        "loading with identical observation moments",
        {"mu1": [0.0, 0.0], "mu2": [1.0, 0.0],
         "loading": [[1.0, 0.0], [0.5, 1.0], [-0.25, 0.7]],
         "tol_constraint": 1e-12, "min_distance": 0.5},
        ["constraint_dev", "loading_distance", "counterexample_valid"],
        {"mu1": (2,), "mu2": (2,), "loading": ("x", 2)}),
    "fa-three-env": ExperimentDef(
        _fa_three_env,
        "environment mean contrasts spanning the latent space pin the "
        "loading uniquely",
        {"env_means": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
         "loading": [[1.0, 0.0], [0.5, 1.0], [-0.25, 0.7]], "tol": 1e-8},
        ["n_envs", "contrast_rank", "unique", "deviation"],
        {"env_means": ("e", "d"), "loading": ("x", "d")}),
    "expfam-kernel": ExperimentDef(
        _expfam_kernel,
        "statistic differences under an equivalence transform fall in the "
        "kernel of the parameter contrasts",
        {"contrasts": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
         "n_probes": 500, "tol": 1e-12, "shift": 0.1},
        ["case", "residual", "fixed_coords_pass", "passed"],
        {"contrasts": ("c", 3)}),
    "strong-vae": ExperimentDef(
        _strong_vae,
        "with spanning environment means, independent fits on disjoint data "
        "recover the same generator",
        {"n_seeds": 20, "n_per_env": 100000, "radius": 3.0,
         "angle_deg": 30.0, "offset": [0.5, -0.3], "min_passes": 19,
         "grid": 21},
        ["seed", "sup_dev", "tol", "passed"], {"offset": (2,)}),
    "ivae-affine": ExperimentDef(
        _ivae_affine,
        "re-anchoring the prior means changes recovered latents only by an "
        "invertible affine map",
        {"n_per_env": 100000, "radius": 3.0, "angle_deg": 30.0,
         "offset": [0.5, -0.3], "gauge_matrix": [[1.2, 0.3], [-0.2, 0.9]],
         "gauge_offset": [0.4, -1.0], "max_cond": 1e3, "resid_factor": 10.0},
        ["residual", "cond_L", "frozen_dev", "matrix_err", "offset_err",
         "passed"],
        {"offset": (2,), "gauge_matrix": (2, 2), "gauge_offset": (2,)}),
    "two-labs": ExperimentDef(
        _two_labs,
        "equivalent fits differ by a prior-preserving transform; "
        "inequivalent ones are caught distributionally",
        {"n": 100000, "angle_deg": 45.0, "alpha": 0.01, "ks_ratio_min": 3.0,
         "loading": [[1.0, 0.0], [0.6, 1.0]]},
        ["cell", "pushforward_pass", "identity_sup_dev", "max_ks_ratio",
         "fit_dev", "passed"], {"loading": (2, 2)}),
    "task-shift": ExperimentDef(
        _task_shift,
        "a latent-shift task changes output under a certified rotation but "
        "not under the identity",
        {"delta": 1.0, "k": 0, "obs": [[1.0, 0.0, 0.0]], "tol": 1e-9},
        ["cell", "distance", "identifiable", "passed"], {"obs": ("n", 3)}),
    "task-indep": ExperimentDef(
        _task_indep,
        "a rank-correlation task is exactly blind to componentwise monotone "
        "relabelings",
        {"n": 1000, "pair": [0, 0], "loading": [[1.0, 0.0], [0.6, 1.0]],
         "null_bound": 0.08},
        ["cell", "value", "passed"], {"pair": (2,), "loading": (2, 2)}),
    "multiview": ExperimentDef(
        _multiview,
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


def _non_finite(value, where: str):
    """Where the first non-finite float in a result value sits, or None."""
    if isinstance(value, dict):
        items = ((f"{where}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, (float, np.floating, np.ndarray)):
        return None if np.all(np.isfinite(value)) else where
    else:
        return None
    for item_where, item in items:
        found = _non_finite(item, item_where)
        if found is not None:
            return found
    return None


def check_params(name: str, params: dict | None):
    """Check overrides against ``name``'s defaults, then run its setup.

    The check: known keys; each value of its default's type (an int may
    stand for a float, a bool not for an int), list entries alike; finite
    floats; >= 1 where the default is a positive int; ``_RANGES``; the
    ``shapes``.  Returns ``run(seed) -> ExperimentResult``, which raises
    ``IdlabError`` if the summary or rows hold a non-finite float; raises
    ``KeyError`` for an unregistered name, else ``ValueError``."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment: {name!r}")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"{name}: params must be a mapping")
    spec = EXPERIMENTS[name]
    defaults = spec.defaults
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
        if not all(math.isfinite(v) for v in _leaves(value)
                   if type(v) is float):
            raise ValueError(f"{name}: {key} must be finite, got {value!r}")
        if type(default) is int and default >= 1 and value < 1:
            raise ValueError(f"{name}: {key} must be >= 1, got {value}")
        lo, hi = _RANGES.get(key, (None, None))
        if lo is not None and not lo < value < hi:
            raise ValueError(f"{name}: {key} must lie in ({lo:g}, {hi:g}), "
                             f"got {value}")
    sizes: dict = {}
    for key, shape in spec.shapes.items():
        value = (params or {}).get(key, defaults[key])
        want = tuple(sizes.get(axis, axis) for axis in shape)
        if not _fits(value, shape, sizes):
            raise ValueError(f"{name}: {key} must have shape {want}, "
                             f"got {value!r}")
    try:
        run = spec.setup({**defaults, **(params or {})})
    except (ValueError, IdlabError) as exc:
        raise ValueError(f"{name}: {exc}") from exc

    def checked(seed):
        passed, summary, rows = run(seed)
        where = _non_finite(summary, "summary") or _non_finite(rows, "rows")
        if where:
            raise IdlabError(f"{where} is not finite")
        return ExperimentResult(name, passed, summary, rows, spec.columns)
    return checked


def run_experiment(name: str, params: dict | None = None,
                   seed: int = 7) -> ExperimentResult:
    """Run one registered experiment and return its result bundle.

    ``params`` overrides the registered defaults key by key; a config that
    ``check_params`` rejects raises before any computation.
    """
    return check_params(name, params)(seed)
