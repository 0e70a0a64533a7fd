"""Multi-environment models and desk-scale estimation routines.

An environment set is one `ExpFamily` and an eta matrix: environment
``e``'s latent law is the family's member at eta row ``e``, and every
environment shares the family's carrier and statistic.  On top of that the
module provides the experiment plumbing: synthetic data generated as one
block of observations per environment, the three validation clauses a
strongly identifiable configuration must satisfy, and fitting routines
whose outputs are triangular maps or, from the per-environment means alone,
linear generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, RankDeficient, SingularCovariance)
from .linear import LinearGenerator, _svd_rank, spanning_check
from .measures import (ExpFamily, GaussianDistribution, Normal1D,
                       ProductDistribution, _rows)
from .transport import AffineMap, TriangularMap, kr_transport

__all__ = [
    "EnvironmentSet",
    "EnvironmentData",
    "ValidationReport",
    "AffineRelation",
    "MarginalQuantileMap",
    "generate_environment_data",
    "validate_strong_vae_config",
    "affine_relation_fit",
    "fit_gaussian_kr",
    "fit_marginal_quantile_transport",
    "fit_env_affine_generator",
]


class EnvironmentSet:
    """Latent laws indexed by environment, all in one exponential family.

    Row ``e`` of ``eta_matrix`` is the natural parameter of environment
    ``e`` in ``family``: its law is ``family.at(eta_matrix[e])``.
    """

    def __init__(self, family: ExpFamily, eta_matrix):
        self.family = family
        self.eta_matrix = np.atleast_2d(np.asarray(eta_matrix, dtype=float))
        if self.eta_matrix.ndim != 2 or self.eta_matrix.shape[1] != family.dim:
            raise DimensionMismatch("need (n_envs, family.dim) eta rows")
        if not self.eta_matrix.shape[0]:
            raise DimensionMismatch("need at least one environment")
        if not np.all(np.isfinite(self.eta_matrix)):
            raise ValueError("eta must be finite")

    @property
    def n_envs(self) -> int:
        return self.eta_matrix.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.family.dim

    @property
    def means(self) -> np.ndarray:
        """``(n_envs, latent_dim)`` latent means, which are the eta rows of a
        family of unit-variance normals at natural parameter = mean."""
        if self.family.member is not Normal1D:
            raise TypeError("eta rows are the means only of Normal1D members")
        return self.eta_matrix

    @classmethod
    def gaussian_mean_envs(cls, means) -> "EnvironmentSet":
        """Unit-covariance Gaussians whose natural parameters are the means."""
        means = np.atleast_2d(np.asarray(means, dtype=float))
        if not means.shape[0]:
            raise DimensionMismatch("need at least one environment")
        return cls(ExpFamily.gaussian_mean_family(means[0]), means)


@dataclass(frozen=True)
class EnvironmentData:
    """Observations stacked in one block per environment.

    ``x`` has shape ``(n_envs, n_per_env, obs_dim)``; ``x[e]`` is the block
    of environment ``e``, in eta-row order.
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
    """Push ``n_per_env`` latent draws per environment through the generator.

    The observations are noiseless, so every row lies on the generator's
    range.
    """
    if n_per_env <= 0:
        raise ValueError("n_per_env must be positive")
    return EnvironmentData(np.stack(
        [generator.forward(envset.family.at(eta).sample(rng, n_per_env))
         for eta in envset.eta_matrix]))


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


def fit_gaussian_kr(target_prior: GaussianDistribution, mean,
                    cov) -> AffineMap:
    """Affine transport sending the prior onto the Gaussian of moments
    ``mean`` and ``cov``.

    The returned map's inverse plays the role of the fitted model's latent
    extraction.
    """
    if not isinstance(target_prior, GaussianDistribution):
        raise TypeError("target prior must be Gaussian")
    d = target_prior.dim
    mean = np.asarray(mean, dtype=float).reshape(d)
    cov = np.asarray(cov, dtype=float).reshape(d, d)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise SingularCovariance("sample moments are not finite")
    try:
        fitted = GaussianDistribution(mean, cov)
    except ValueError as exc:
        raise SingularCovariance("sample covariance is not positive definite") from exc
    return kr_transport(target_prior, fitted)


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

    def forward(self, Z):
        Z = _rows(Z, self.dim)
        out = np.empty_like(Z)
        for m in range(self.dim):
            u = self.prior.marginals[m].cdf(Z[:, m])
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

    def log_det_jacobian(self, Z):
        raise NotImplementedError("the map is a fit artifact with no log-det")


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

    Solves ``means[e] ~ b + W mu_e``, one row per environment, by least
    squares; with latent-mean anchors spanning the latent space this pins
    the full matrix ``W`` including any rotation part.  Requires at least
    ``latent_dim + 1`` environments in general position.
    """
    coef, *_ = np.linalg.lstsq(_affine_design(envset.means), means, rcond=None)
    return LinearGenerator(coef[1:].T, coef[0])


def _affine_design(mus) -> np.ndarray:
    """The mean fit's ``[1, mu_e]`` rows; ``RankDeficient`` unless full rank."""
    design = np.column_stack([np.ones(len(mus)), mus])
    if _svd_rank(design) < design.shape[1]:
        raise RankDeficient("environment means do not pin an affine generator")
    return design

