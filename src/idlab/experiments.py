"""Registered experiments: each one checks a claim end to end.

An experiment's setup builds everything its claim needs from the params and
draws nothing, so a config it cannot build is rejected before any
computation.  It returns ``run(seed, claim) -> (summary, rows)``, which
draws, fits and checks: a JSON-serializable summary, and plot-ready CSV rows,
each a tuple in the registry's ``columns`` order.  Every check goes through
``claim``, which records a ``Claim`` and returns its verdict; a row's claims
share its cell name, cells come in row order, and the experiment passes when
all its claims hold.  ``check_params`` runs the setup.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .envs import (EnvironmentSet, affine_relation_fit,
                   fit_env_affine_generator, fit_gaussian_kr,
                   validate_strong_vae_config, _affine_design)
from .errors import IdlabError
from .indeterminacy import (ModelParams, act_on_params,
                            fixed_coordinate_check, generator_transform,
                            identity_deviation, indeterminacy_audit,
                            kernel_residual, verify_multiview)
from .linear import (LinearGenerator, comon_structure_check,
                     rotation_counterexample, solve_multi_env_linear)
from .measures import (GaussianDistribution, GaussianMixture1D, Laplace1D,
                       Logistic1D, ProductDistribution, interdecile_grid)
from .rng import stream
from .tasks import (independence_test_task, latent_shift_task, spearman_abs,
                    task_identifiability_check)
from .transport import (AffineMap, Automorphism, component_wise_check,
                        jacobian_fd, kr_transport)

__all__ = ["Claim", "ExperimentResult", "EXPERIMENTS", "run_experiment",
           "experiment_names", "check_params"]

_OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One check of a result cell: ``measured op bound``, or with no ``op``
    a boolean verdict recorded as itself."""
    cell: str
    measured: object
    op: str | None = None
    bound: float | None = None

    @property
    def holds(self) -> bool:
        if self.op is None:
            return bool(self.measured)
        return bool(_OPS[self.op](self.measured, self.bound))


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    rows: list
    columns: list
    claims = ()  # the run's ``Claim`` records; no field, so asdict skips it


def _rotation(angle_deg: float) -> np.ndarray:
    t = math.radians(angle_deg)
    return np.array([[math.cos(t), -math.sin(t)],
                     [math.sin(t), math.cos(t)]])


#: latent probes are grids on this law's interdecile box
_STANDARD_NORMAL = GaussianDistribution(np.zeros(2), np.eye(2))


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

    def run(seed, claim):
        rows = []
        for sid, (family, d, prior, mapping) in enumerate(cells):
            z = prior.sample(stream(seed, sid), params["n_probes"])
            sup, rms = identity_deviation(mapping, z)
            rows.append((family, d, sup, rms,
                         claim(f"{family} d={d}", sup, "<", params["tol"])))
        return {"max_sup_dev": max(r[2] for r in rows),
                "tol": params["tol"]}, rows
    return run


def _kr_gaussian(params):
    def run(seed, claim):
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
            rows.append((i, d, diff,
                         claim(f"pair {i}", diff, "<", params["tol"])))
        return {"max_sup_diff": max(r[2] for r in rows),
                "tol": params["tol"]}, rows
    return run


def _ica_comon(params):
    source = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.3, 1.3)])
    target = ProductDistribution([Logistic1D(-0.2, 0.8), Logistic1D(0.4, 1.1)])
    mapping = kr_transport(source, target)

    def run(seed, claim):
        probes = source.sample(stream(seed), params["n_probes"])
        report = component_wise_check(mapping, probes, tol=params["tol"])
        # the Jacobian at the sample median should be a diagonal matrix
        J = jacobian_fd(mapping.forward,
                        np.median(probes, axis=0, keepdims=True))[0]
        comon = comon_structure_check(J, tol=params["tol"])
        row = (report.max_offdiag, report.max_upper, comon.component_wise,
               all([claim("component_wise", comon.component_wise),
                    claim("component_wise", report.max_offdiag, "<",
                          report.tol)]))
        return {"structure": asdict(report),
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

    def run(seed, claim):
        dev = max(float(np.abs(gen1.forward(mu) - gen2.forward(mu)).max())
                  for mu in (mu1[None], mu2[None]))
        distance = float(np.linalg.norm(gen1.loading - gen2.loading))
        valid = all([
            claim("counterexample", distance, ">", params["min_distance"]),
            claim("counterexample", dev, "<", params["tol_constraint"])])
        return {"counterexample_valid": valid, "constraint_dev": dev,
                "loading_distance": distance,
                "rotation": np.asarray(R).tolist()}, [(dev, distance, valid)]
    return run


def _fa_three_env(params):
    with _rejected("loading"):
        gen = LinearGenerator(params["loading"])
    mus = np.asarray(params["env_means"], dtype=float)
    if mus.shape[0] < 2:
        raise ValueError("env_means needs at least 2 rows")

    def run(seed, claim):
        rows = []
        for count in (2, mus.shape[0]):
            rep = solve_multi_env_linear(gen, mus[:count])
            rows.append((count, rep.contrast_rank, bool(rep.unique),
                         -1.0 if rep.deviation is None else rep.deviation))
        (_, _, two_unique, _), (_, _, unique, deviation) = rows
        claim("two_envs", not two_unique)
        claim("all_envs", unique)
        claim("all_envs", deviation, "<", params["tol"])
        return {"deviation": deviation, "tol": params["tol"]}, rows
    return run


def _expfam_kernel(params):
    d = 3
    M = np.asarray(params["contrasts"], dtype=float)
    prior = GaussianDistribution(np.zeros(d), np.eye(d))
    flip = Automorphism.from_matrix(np.diag([1.0, 1.0, -1.0]))
    shift = Automorphism.from_matrix(np.eye(d), [params["shift"], 0.0, 0.0])
    suff = lambda z: z
    tol = params["tol"]

    def run(seed, claim):
        probes = prior.sample(stream(seed), params["n_probes"])
        r_flip = kernel_residual(suff, flip, M, probes)
        fixed = fixed_coordinate_check(flip, [0, 1], probes, tol=1e-10)
        r_shift = kernel_residual(suff, shift, M, probes)
        rows = [
            ("coordinate_flip", r_flip, fixed.passed, all([
                claim("coordinate_flip", r_flip, "<", tol),
                claim("coordinate_flip", fixed.passed)])),
            ("translation", r_shift, False,
             claim("translation", r_shift, ">=", params["shift"] - tol)),
        ]
        return {"flip_residual": r_flip, "shift_residual": r_shift,
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
    mus = envset.means
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
    probes = interdecile_grid(_STANDARD_NORMAL, params["grid"])

    def run(seed, claim):
        rows = []
        for s in range(params["n_seeds"]):
            sup, _, _ = _fit_pair_deviation(envset, generator, n,
                                            stream(seed, s), probes)
            rows.append((s, sup, tol, sup < tol))
        n_pass = sum(r[3] for r in rows)
        claim("config", config.passed)
        claim("n_pass", n_pass, ">=", params["min_passes"])
        return {"config_valid": config.passed, "n_pass": n_pass,
                "n_seeds": params["n_seeds"], "tol": tol,
                "max_sup_dev": max(r[1] for r in rows)}, rows
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
    probes = interdecile_grid(_STANDARD_NORMAL, 21)
    # the relation between two affine fits is exact, so any rows show it;
    # these are the probes around each environment mean, where the data lie
    x = generator.forward((means[:, None, :] + probes).reshape(-1, 2))

    def run(seed, claim):
        rng = stream(seed)
        frozen_dev, fit_a, _ = _fit_pair_deviation(envset, generator, n, rng,
                                                   probes)
        fit_b = fit_env_affine_generator(
            _exact_block_means(envset, generator, n, rng), envset_b)
        relation = affine_relation_fit(fit_a.inverse(x), fit_b.inverse(x))
        return {"relation": asdict(relation), "frozen_dev": frozen_dev}, [
            (relation.residual, relation.condition_number, frozen_dev,
             float(np.abs(relation.matrix.T - G).max()),
             float(np.abs(relation.offset - h).max()), all([
                 claim("relation", relation.condition_number, "<",
                       params["max_cond"]),
                 claim("relation", relation.residual, "<",
                       params["resid_factor"] * frozen_dev)]))]
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
    probes = interdecile_grid(_STANDARD_NORMAL, 21)
    fit_tol = 10.0 / math.sqrt(n)

    def run(seed, claim):
        def audit_cell(sid, prior):
            report = indeterminacy_audit(ModelParams(gen_a, prior),
                                         ModelParams(gen_b, prior),
                                         n, stream(seed, sid),
                                         alpha=params["alpha"])
            return report, float(max(
                np.max(c.statistics) / c.critical_value
                for c in (report.forward_check, report.inverse_check)))

        gauss_report, gauss_ratio = audit_cell(0, gauss)
        lap_report, lap_ratio = audit_cell(1, laplace)
        rng = stream(seed, 17)
        halves = [_exact_moments(model, n, rng) for _ in range(2)]
        fit_1, fit_2 = (fit_gaussian_kr(gauss, mean, cov)
                        for mean, cov in halves)
        sup, _ = identity_deviation(generator_transform(fit_1, fit_2), probes)

        rows = [
            ("gaussian_rotation", gauss_report.pushforward_pass,
             gauss_report.identity_sup_dev, gauss_ratio, -1.0, all([
                 claim("gaussian_rotation", gauss_report.pushforward_pass),
                 claim("gaussian_rotation",
                       not gauss_report.structure["is_identity_ae"])])),
            ("laplace_rotation", lap_report.pushforward_pass,
             lap_report.identity_sup_dev, lap_ratio, -1.0, all([
                 claim("laplace_rotation", not lap_report.pushforward_pass),
                 claim("laplace_rotation", lap_ratio, ">=",
                       params["ks_ratio_min"])])),
            ("fit_halves", True, sup, -1.0, sup,
             claim("fit_halves", sup, "<", fit_tol)),
        ]
        return {"gaussian_ratio": gauss_ratio, "laplace_ratio": lap_ratio,
                "fit_dev": sup, "fit_tol": fit_tol}, rows
    return run


# ---------------------------------------------------------------------------
# task experiments
# ---------------------------------------------------------------------------

def _task_shift(params):
    gen = LinearGenerator(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    theta = ModelParams(gen, GaussianDistribution(np.zeros(2), np.eye(2)))
    task = latent_shift_task(params["delta"], params["k"], gen.latent_dim)
    obs = np.asarray(params["obs"], dtype=float)
    rot = Automorphism.from_matrix([[0.0, -1.0], [1.0, 0.0]])
    # translations commute with the shift; certification would reject them
    # (no probability prior is translation invariant), so compare raw outputs
    twisted = act_on_params(
        Automorphism.from_matrix(np.eye(2), [0.7, -0.4]), theta)
    target = math.sqrt(2.0)

    def run(seed, claim):
        rot_report = task_identifiability_check(task, theta, [rot], obs,
                                                tol=1e-6)
        id_report = task_identifiability_check(
            task, theta, [Automorphism.identity(2)], obs, tol=1e-6)
        base = task.evaluate(theta, obs, task.select(theta, obs))
        moved = task.evaluate(twisted, obs, task.select(twisted, obs))
        trans_dist = float(task.output_metric(base, moved))
        rows = [
            ("rotation", rot_report.max_distance, rot_report.identifiable,
             all([claim("rotation", abs(rot_report.max_distance - target),
                        "<", params["tol"]),
                  claim("rotation", not rot_report.identifiable)])),
            ("identity_only", id_report.max_distance, id_report.identifiable,
             all([claim("identity_only", id_report.max_distance, "==", 0.0),
                  claim("identity_only", id_report.identifiable)])),
            ("translation_raw", trans_dist, trans_dist < 1e-12,
             claim("translation_raw", trans_dist, "<", 1e-12)),
        ]
        return {"rotation_distance": rot_report.max_distance,
                "expected": target}, rows
    return run


def _task_indep(params):
    n = params["n"]
    prior = ProductDistribution([Laplace1D(), Laplace1D()])
    with _rejected("loading"):
        gen = AffineMap(params["loading"], [0.0, 0.0])
    theta = ModelParams(gen, prior)
    task = independence_test_task(tuple(params["pair"]), n, gen.dim)
    flip = Automorphism.from_matrix(-np.eye(2))

    def run(seed, claim):
        z = prior.sample(stream(seed), n)
        obs = gen.forward(z)
        report = task_identifiability_check(task, theta, [flip], obs,
                                            tol=1e-15)
        null_stat = spearman_abs(obs[:, 0], z[:, 1])
        checks = [("flip_invariance", report.max_distance, "==", 0.0),
                  ("independent_pair", null_stat, "<", params["null_bound"]),
                  ("perfect_dependence", spearman_abs(z[:, 0], z[:, 0]),
                   "==", 1.0)]
        rows = [(cell, value, claim(cell, value, op, bound))
                for cell, value, op, bound in checks]
        return {"flip_distance": report.max_distance,
                "null_stat": null_stat}, rows
    return run


def _multiview(params):
    prior = GaussianDistribution(np.zeros(2), np.eye(2))
    n = params["n"]
    tol = params["tol"]
    R = _rotation(params["angle_deg"])
    tmi_view = AffineMap([[1.0, 0.0], [0.4, 1.0]], [0.0, 0.0])
    free_view = LinearGenerator(R @ np.array([[1.3, 0.2], [0.1, 0.8]]))
    model_a = {"tmi": tmi_view, "free": free_view}
    lin_a = {"tmi": LinearGenerator([[1.0, 0.0], [0.4, 1.0]]),
             "free": free_view}
    lin_b = {"tmi": LinearGenerator(lin_a["tmi"].loading @ R.T),
             "free": LinearGenerator(free_view.loading @ R.T)}

    def run(seed, claim):
        pinned = verify_multiview(model_a, model_a, prior, n,
                                  stream(seed, 0), tol=tol)
        rotated = verify_multiview(lin_a, lin_b, prior, n, stream(seed, 1),
                                   tol=tol)
        gap = pinned.details["max_disagreement"]
        pinned_id = pinned.structure["is_identity_ae"]
        rotated_id = rotated.structure["is_identity_ae"]
        rows = [
            ("tmi_plus_free", pinned_id, pinned.identity_sup_dev, gap,
             all([claim("tmi_plus_free", pinned_id),
                  claim("tmi_plus_free", gap, "<", tol)])),
            ("consistent_rotation", rotated_id, rotated.identity_sup_dev,
             rotated.details["max_disagreement"],
             claim("consistent_rotation", not rotated_id)),
        ]
        return {"pinned": asdict(pinned), "rotated": asdict(rotated)}, rows
    return run


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass
class ExperimentDef:
    #: ``setup(params)`` returns ``run(seed, claim) -> (summary, rows)``,
    #: each row a tuple in ``columns`` order
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
#: that registers it: tolerances and limits are positive, alpha a level
_RANGES = {key: (0.0, math.inf)
           for key in ("tol", "tol_constraint", "min_distance", "max_cond",
                       "resid_factor", "ks_ratio_min", "null_bound")}
_RANGES["alpha"] = (0.0, 1.0)

#: floating-point exceptions a setup or a run raises; underflow passes
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}


def _non_finite(value, where: str):
    """Where the first non-finite float in a result value sits, or None."""
    if isinstance(value, dict):
        items = ((f"{where}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        numeric = isinstance(value, (float, np.floating, np.ndarray))
        return where if numeric and not np.all(np.isfinite(value)) else None
    return next(filter(None, (_non_finite(v, w) for w, v in items)), None)


def check_params(name: str, params: dict):
    """Check overrides against ``name``'s defaults, then run its setup.

    The check: known keys; each value of its default's type (an int may
    stand for a float, a bool not for an int), list entries alike; finite
    floats; >= 1 where the default is a positive int; ``_RANGES``; the
    ``shapes``; a setup that overflows, divides by zero or operates
    invalidly.  Returns ``run(seed) -> ExperimentResult``: it calls the
    setup's ``run(seed, claim) -> (summary, rows)``, keys each row by the
    ``columns`` and passes when every recorded claim holds.  It raises
    ``IdlabError`` on such an exception or a non-finite float in the
    summary or rows; raises ``KeyError`` for an unregistered name, else
    ``ValueError``."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment: {name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"{name}: params must be a mapping")
    spec = EXPERIMENTS[name]
    defaults = spec.defaults
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"{name}: unknown params {unknown}")
    for key, value in params.items():
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
        value = params.get(key, defaults[key])
        want = tuple(sizes.get(axis, axis) for axis in shape)
        if not _fits(value, shape, sizes):
            raise ValueError(f"{name}: {key} must have shape {want}, "
                             f"got {value!r}")
    try:
        with np.errstate(**_RAISE):
            run = spec.setup({**defaults, **params})
    except (ValueError, IdlabError, FloatingPointError) as exc:
        raise ValueError(f"{name}: {exc}") from exc

    def checked(seed):
        claims = []

        def claim(cell, measured, op=None, bound=None):
            claims.append(Claim(cell, measured, op, bound))
            return claims[-1].holds
        try:  # errstate is context-local: set here, in the caller's thread
            with np.errstate(**_RAISE):
                summary, rows = run(seed, claim)
        except FloatingPointError as exc:
            raise IdlabError(str(exc)) from exc
        rows = [dict(zip(spec.columns, row, strict=True)) for row in rows]
        where = _non_finite(summary, "summary") or _non_finite(rows, "rows")
        if where:
            raise IdlabError(f"{where} is not finite")
        result = ExperimentResult(name, all(c.holds for c in claims),
                                  summary, rows, spec.columns)
        result.claims = claims
        return result
    return checked


def run_experiment(name: str, params: dict | None = None,
                   seed: int = 7) -> ExperimentResult:
    """Run one registered experiment and return its result bundle.

    ``params`` overrides the registered defaults key by key; a config that
    ``check_params`` rejects raises before any computation.
    """
    return check_params(name, {} if params is None else params)(seed)
