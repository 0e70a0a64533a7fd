"""Multi-environment models and desk-scale estimation routines.

An environment set holds one latent prior per environment and an eta matrix
whose row ``e`` is environment ``e``'s natural parameter in one `ExpFamily`,
which supplies the carrier and statistic every environment shares.  On top
of that the module provides the experiment plumbing: synthetic data
generated as one block of observations per environment, the three
validation clauses a strongly identifiable configuration must satisfy,
fitting routines whose outputs are triangular maps or, from the
per-environment means alone, linear generators, and the multi-view verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (DimensionMismatch, RankDeficient, SingularCovariance)
from .linear import LinearGenerator, _svd_rank, spanning_check
from .measures import (Distribution, ExpFamily, GaussianDistribution,
                       ProductDistribution, _rows)
from .transport import AffineMap, TriangularMap

__all__ = [
    "ModelParams",
    "EnvironmentSet",
    "EnvironmentData",
    "MultiViewModel",
    "ValidationReport",
    "AffineRelation",
    "MarginalQuantileMap",
    "generate_environment_data",
    "validate_strong_vae_config",
    "affine_relation_fit",
    "fit_gaussian_kr",
    "fit_marginal_quantile_transport",
    "fit_env_affine_generator",
    "verify_multiview",
]

@dataclass
class ModelParams:
    """A generative model: injective generator plus latent prior.

    The generator exposes ``forward``/``inverse`` (inverse exact on its
    range) and a ``latent_dim``.
    """

    generator: object
    prior: Distribution
    name: str = ""


class EnvironmentSet:
    """Latent priors indexed by environment, tied to one exponential family.

    Row ``e`` of ``eta_matrix`` is the natural parameter of environment
    ``e`` in ``family``, whose carrier and statistic every environment
    shares.
    """

    def __init__(self, priors, eta_matrix, family: ExpFamily):
        self.priors = list(priors)
        if not self.priors:
            raise DimensionMismatch("need at least one environment")
        dims = {p.dim for p in self.priors}
        if len(dims) != 1:
            raise DimensionMismatch("environment priors must share a dimension")
        self.eta_matrix = np.atleast_2d(np.asarray(eta_matrix, dtype=float))
        if self.eta_matrix.shape[0] != len(self.priors):
            raise DimensionMismatch("one eta row per environment required")
        self.family = family

    @property
    def n_envs(self) -> int:
        return len(self.priors)

    @property
    def latent_dim(self) -> int:
        return self.priors[0].dim

    @classmethod
    def gaussian_mean_envs(cls, means) -> "EnvironmentSet":
        """Unit-covariance Gaussians whose natural parameters are the means.

        The priors stay ``GaussianDistribution``s, which sample in closed form.
        """
        means = np.atleast_2d(np.asarray(means, dtype=float))
        d = means.shape[1]
        priors = [GaussianDistribution(mu, np.eye(d)) for mu in means]
        return cls(priors, means, ExpFamily.gaussian_mean_family(means[0]))


@dataclass(frozen=True)
class EnvironmentData:
    """Observations stacked in one block per environment.

    ``x`` has shape ``(n_envs, n_per_env, obs_dim)``; ``x[e]`` is the block
    of environment ``e``, in prior order.
    """

    x: np.ndarray

    @property
    def n_per_env(self) -> int:
        return self.x.shape[1]

    @property
    def block_means(self) -> np.ndarray:
        """``(n_envs, obs_dim)`` means; one einsum adds each block's rows in
        ``.mean(axis=0)``'s order, so the bits agree from obs_dim 2 on."""
        return np.einsum("enk->ek", self.x) / self.n_per_env


def generate_environment_data(envset: EnvironmentSet, generator,
                              n_per_env: int,
                              rng: np.random.Generator) -> EnvironmentData:
    """Push ``n_per_env`` latent draws per prior through the generator.

    The observations are noiseless, so every row lies on the generator's
    range.
    """
    if n_per_env <= 0:
        raise ValueError("n_per_env must be positive")
    return EnvironmentData(np.stack(
        [generator.forward(prior.sample(rng, n_per_env))
         for prior in envset.priors]))


@dataclass
class ValidationReport:
    passed: bool
    failing_clause: str | None
    details: dict = field(default_factory=dict)


def validate_strong_vae_config(envset: EnvironmentSet) -> ValidationReport:
    """Check the three clauses behind strong multi-environment recovery.

    In order: the natural-parameter contrasts span the statistic space; the
    family's carrier is strictly positive on the cube of 41 grid values per
    axis in [-4, 4]; column 0 of its sufficient statistic is strictly
    monotone along the first latent axis on those values.  The first
    failing clause is reported.
    """
    fam = envset.family
    details: dict = {}

    span = spanning_check(envset.eta_matrix)
    details["spanning"] = span
    if not span.spans:
        return ValidationReport(False, "spanning", details)

    # the carrier multiplies one scalar carrier per coordinate, so its
    # positivity and minimum on the cube of grid values show on its diagonal
    d = envset.latent_dim
    t = np.linspace(-4.0, 4.0, 41)
    log_m = fam.log_base(np.repeat(t[:, None], d, axis=1))
    details["min_log_base"] = float(log_m.min())
    if not np.all(np.isfinite(log_m)):
        return ValidationReport(False, "base_measure_positivity", details)

    line = np.zeros((t.size, d))
    line[:, 0] = t
    vals = fam.suff_stat(line)[:, 0]
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
    details["statistic_range"] = (float(vals.min()), float(vals.max()))
    if not monotone:
        return ValidationReport(False, "statistic_monotonicity", details)

    return ValidationReport(True, None, details)


@dataclass
class AffineRelation:
    """Fitted affine link  stats_b ~ stats_a @ matrix + offset."""

    matrix: np.ndarray
    offset: np.ndarray
    residual: float
    condition_number: float


def affine_relation_fit(stats_a, stats_b) -> AffineRelation:
    """Least-squares affine map between paired sufficient statistics.

    Raises ``RankDeficient`` when the centered predictor statistics do not
    span their space, so the linear part would be unidentified.
    """
    Ta = np.atleast_2d(np.asarray(stats_a, dtype=float))
    Tb = np.atleast_2d(np.asarray(stats_b, dtype=float))
    if Ta.shape != Tb.shape:
        raise DimensionMismatch("statistic arrays must have equal shapes")
    n, K = Ta.shape
    if _svd_rank(Ta - Ta.mean(axis=0)) < K:
        raise RankDeficient("centered statistics are rank deficient")
    X = np.column_stack([Ta, np.ones(n)])
    coef, *_ = np.linalg.lstsq(X, Tb, rcond=None)
    L, d = coef[:K], coef[K]
    resid = float(np.sqrt(np.mean((X @ coef - Tb) ** 2)))
    return AffineRelation(matrix=L, offset=d, residual=resid,
                          condition_number=float(np.linalg.cond(L)))


def fit_gaussian_kr(samples, target_prior: GaussianDistribution, *,
                    mean=None, cov=None) -> AffineMap:
    """Affine transport sending the prior onto a Gaussian moment fit.

    Moments come from ``samples`` (requiring at least ``10 * dim`` rows) or
    may be passed directly for the population-exact path.  The returned
    map's inverse plays the role of the fitted model's latent extraction.
    """
    if not isinstance(target_prior, GaussianDistribution):
        raise TypeError("target prior must be Gaussian")
    d = target_prior.dim
    if samples is not None:
        S = np.atleast_2d(np.asarray(samples, dtype=float))
        if S.shape[0] < 10 * d:
            raise ValueError("need at least 10 * dim samples for a moment fit")
        mean = S.mean(axis=0)
        cov = np.cov(S, rowvar=False, ddof=1).reshape(d, d)
    elif mean is None or cov is None:
        raise ValueError("provide samples or explicit moments")
    mean = np.asarray(mean, dtype=float).reshape(d)
    cov = np.asarray(cov, dtype=float).reshape(d, d)
    try:
        L_fit = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("sample covariance is not positive definite") from exc
    L = L_fit @ solve_triangular(target_prior.cholesky, np.eye(d), lower=True)
    return AffineMap(L, mean - L @ target_prior.mean)


class MarginalQuantileMap(TriangularMap):
    """Componentwise map sending prior marginals onto empirical quantiles.

    Each component interpolates linearly between quantile knots (order
    statistics at fixed levels) and extends the end segments linearly into
    the tails, so the map is strictly increasing on all of R.
    """

    def __init__(self, prior: ProductDistribution, levels, knots):
        self.prior = prior
        self.levels = np.asarray(levels, dtype=float)
        self.knots = np.atleast_2d(np.asarray(knots, dtype=float))
        if self.knots.shape != (prior.dim, self.levels.shape[0]):
            raise DimensionMismatch("need one knot row per coordinate")
        self.dim = prior.dim

    @staticmethod
    def _interp(x, xp, fp):
        out = np.interp(x, xp, fp)
        lo = x < xp[0]
        hi = x > xp[-1]
        if np.any(lo):
            slope = (fp[1] - fp[0]) / (xp[1] - xp[0])
            out = np.where(lo, fp[0] + (x - xp[0]) * slope, out)
        if np.any(hi):
            slope = (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
            out = np.where(hi, fp[-1] + (x - xp[-1]) * slope, out)
        return out

    def forward_prefix(self, P):
        P = np.asarray(P, dtype=float)
        out = np.empty_like(P)
        for m in range(P.shape[1]):
            u = self.prior.marginals[m].cdf(P[:, m])
            out[:, m] = self._interp(u, self.levels, self.knots[m])
        return out

    def inverse(self, X):
        X2 = _rows(X, self.dim)
        out = np.empty_like(X2)
        for m in range(self.dim):
            u = self._interp(X2[:, m], self.knots[m], self.levels)
            out[:, m] = self.prior.marginals[m].ppf(
                np.clip(u, 1e-12, 1.0 - 1e-12))
        return out

    def inverted(self):
        raise NotImplementedError("use .inverse; the map is a fit artifact")


def fit_marginal_quantile_transport(samples, target_prior: ProductDistribution,
                                    grid_size: int = 257) -> MarginalQuantileMap:
    """Fit a componentwise transport from prior marginals to data marginals."""
    if not isinstance(target_prior, ProductDistribution):
        raise TypeError("prior must be a product distribution")
    S = np.atleast_2d(np.asarray(samples, dtype=float))
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if S.shape[0] < grid_size:
        raise ValueError("need at least grid_size samples")
    if S.shape[1] != target_prior.dim:
        raise DimensionMismatch("sample and prior dimensions differ")
    levels = (np.arange(grid_size) + 0.5) / grid_size
    knots = np.quantile(S, levels, axis=0).T
    # enforce strict monotonicity of the knot rows
    eps = 1e-12 * max(1.0, float(np.abs(knots).max()))
    for m in range(knots.shape[0]):
        for j in range(1, knots.shape[1]):
            if knots[m, j] <= knots[m, j - 1]:
                knots[m, j] = knots[m, j - 1] + eps
    return MarginalQuantileMap(target_prior, levels, knots)


def fit_env_affine_generator(means, envset: EnvironmentSet):
    """Recover an affine generator from per-environment observation means.

    Solves ``means[e] ~ b + W mu_e``, one row per prior, by least squares;
    with latent-mean anchors spanning the latent space this pins the full
    matrix ``W`` including any rotation part.  Requires at least
    ``latent_dim + 1`` environments in general position.
    """
    mus = np.array([np.asarray(p.mean, dtype=float) for p in envset.priors])
    coef, *_ = np.linalg.lstsq(_affine_design(mus), means, rcond=None)
    return LinearGenerator(coef[1:].T, coef[0])


def _affine_design(mus) -> np.ndarray:
    """The mean fit's ``[1, mu_e]`` rows; ``RankDeficient`` unless full rank."""
    design = np.column_stack([np.ones(len(mus)), mus])
    if _svd_rank(design) < design.shape[1]:
        raise RankDeficient("environment means do not pin an affine generator")
    return design


@dataclass
class MultiViewModel:
    """One generator per view, all driven by a single shared latent."""

    generators: dict


def verify_multiview(model_a: MultiViewModel, model_b: MultiViewModel,
                     prior: Distribution, n: int, rng: np.random.Generator,
                     tol: float = 1e-6):
    """Compare the per-view latent transforms of two multi-view models.

    Each view contributes the transform linking the two models' generators
    for that view; observationally equivalent models force every view onto
    the same transform, and one view whose transform is the identity pins
    the shared latent.  The report's headline deviations belong to the best
    view; per-view deviations and the max pairwise disagreement ride along
    in the details.
    """
    from .indeterminacy import (IndeterminacyReport, generator_transform,
                                identity_deviation)
    if set(model_a.generators) != set(model_b.generators):
        raise DimensionMismatch("models must share their view labels")
    z = prior.sample(rng, n)
    values, sups, rmss = {}, {}, {}
    for label in sorted(model_a.generators):
        transform = generator_transform(model_a.generators[label],
                                        model_b.generators[label], probes=z)
        values[label] = transform.forward(z)
        sups[label], rmss[label] = identity_deviation(transform, z)
    labels = sorted(values)
    disagreement = 0.0
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            disagreement = max(disagreement,
                               float(np.abs(values[a] - values[b]).max()))
    best = min(labels, key=lambda v: sups[v])
    return IndeterminacyReport(
        identity_sup_dev=sups[best], identity_rms_dev=rmss[best],
        structure={"is_identity_ae": bool(sups[best] < tol)}, n=n,
        details={"view_identity_dev": sups, "best_view": best,
                 "max_disagreement": disagreement, "tol": tol})
