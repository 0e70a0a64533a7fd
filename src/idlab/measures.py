"""Probability measures used as latent priors and transport endpoints.

The module provides a small zoo of fully supported distributions behind one
`Distribution` interface: exact densities in log space, samplers driven by
counter-based streams, and conditional CDFs with their inverses.  Gaussian
laws and products of normal, Laplace, logistic or exponential marginals give
their conditional quantiles in closed form.  The Gaussian mixture marginal is
the one law whose quantile is found iteratively: Newton steps inside the
exact bracket spanned by its component quantiles.  So every distribution
supports Rosenblatt-style resampling and triangular transport.

`ExpFamily` is the conditionally factorial exponential family of the iVAE
prior: a product of 1-D tilted laws that share one scalar carrier, statistic
and log-partition, each with its own natural parameter.  It carries those
callables explicitly, which is what the environment and indeterminacy
machinery consumes.  Each marginal tabulates its CDF once on a quadrature
grid and inverts that table exactly, so the family has no dimension limit
and takes O(d * grid) memory.
"""

from __future__ import annotations

import abc
import math

import numpy as np
from scipy import special

from .errors import BracketFailure, DimensionMismatch

__all__ = [
    "Univariate",
    "Normal1D",
    "Laplace1D",
    "Logistic1D",
    "Exponential1D",
    "GaussianMixture1D",
    "Distribution",
    "GaussianDistribution",
    "ProductDistribution",
    "ExpFamily",
    "sample",
    "interdecile_box",
    "univariate_from_spec",
    "distribution_from_spec",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Probabilities are clipped to this open sub-interval of (0, 1) before
# inversion; beyond it double precision cannot tell the CDF apart from 0 or 1.
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16


# ---------------------------------------------------------------------------
# univariate building blocks
# ---------------------------------------------------------------------------

class Univariate(abc.ABC):
    """A scalar distribution with exact CDF, used as a product marginal."""

    kind: str = ""
    support: tuple[float, float] = (-np.inf, np.inf)

    @abc.abstractmethod
    def log_pdf(self, x):
        ...

    @abc.abstractmethod
    def cdf(self, x):
        ...

    @abc.abstractmethod
    def ppf(self, p):
        ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int):
        ...


class Normal1D(Univariate):
    kind = "normal"

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.loc = float(loc)
        self.scale = float(scale)

    def log_pdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return -0.5 * u * u - math.log(self.scale) - 0.5 * _LOG_2PI

    def cdf(self, x):
        return special.ndtr((np.asarray(x, dtype=float) - self.loc) / self.scale)

    def ppf(self, p):
        return self.loc + self.scale * special.ndtri(np.asarray(p, dtype=float))

    def sample(self, rng, n):
        return self.loc + self.scale * rng.standard_normal(n)


class Laplace1D(Univariate):
    kind = "laplace"

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.loc = float(loc)
        self.scale = float(scale)

    def log_pdf(self, x):
        u = np.abs(np.asarray(x, dtype=float) - self.loc) / self.scale
        return -u - math.log(2.0 * self.scale)

    def cdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return np.where(u < 0, 0.5 * np.exp(u), 1.0 - 0.5 * np.exp(-np.abs(u)))

    def ppf(self, p):
        p = np.asarray(p, dtype=float)
        lower = self.loc + self.scale * np.log(2.0 * np.minimum(p, 0.5))
        upper = self.loc - self.scale * np.log(2.0 * np.minimum(1.0 - p, 0.5))
        return np.where(p < 0.5, lower, upper)

    def sample(self, rng, n):
        return rng.laplace(self.loc, self.scale, n)


class Logistic1D(Univariate):
    kind = "logistic"

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.loc = float(loc)
        self.scale = float(scale)

    def log_pdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        # -u - 2 log(1 + e^-u), stable on both tails
        return -np.abs(u) - 2.0 * np.log1p(np.exp(-np.abs(u))) - math.log(self.scale)

    def cdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return special.expit(u)

    def ppf(self, p):
        return self.loc + self.scale * special.logit(np.asarray(p, dtype=float))

    def sample(self, rng, n):
        return rng.logistic(self.loc, self.scale, n)


class Exponential1D(Univariate):
    kind = "exponential"

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.support = (0.0, np.inf)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, math.log(self.rate) - self.rate * x, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def ppf(self, p):
        return -np.log1p(-np.asarray(p, dtype=float)) / self.rate

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)


class GaussianMixture1D(Univariate):
    """Finite mixture of normals; the CDF is exact, the quantile is inverted."""

    kind = "gaussian_mixture"

    def __init__(self, weights, locs, scales):
        self.weights = np.asarray(weights, dtype=float)
        self.locs = np.asarray(locs, dtype=float)
        self.scales = np.asarray(scales, dtype=float)
        if not (self.weights.shape == self.locs.shape == self.scales.shape):
            raise DimensionMismatch("mixture parameter arrays must align")
        if np.any(self.weights <= 0) or np.any(self.scales <= 0):
            raise ValueError("weights and scales must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        u = (x[..., None] - self.locs) / self.scales
        comp = -0.5 * u * u - np.log(self.scales) - 0.5 * _LOG_2PI
        return special.logsumexp(comp, axis=-1, b=self.weights)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        u = (x[..., None] - self.locs) / self.scales
        return special.ndtr(u) @ self.weights

    def ppf(self, p):
        """Quantile by Newton steps on the CDF inside an exact bracket.

        At the smallest component p-quantile every component CDF is at most
        ``p``, and at the largest every one is at least ``p``, so the mixture
        quantile lies between the two and the bracket never needs to grow.
        Each evaluated point tightens the bracket, and a Newton step that
        would not land strictly inside it is replaced by bisection.  A row
        stops once its Newton correction or its bracket is below 1e-14
        relative; the bracket test ends the two-point cycles that CDF
        rounding causes in the tails.
        """
        p = np.asarray(p, dtype=float)
        q = np.clip(np.atleast_1d(p).ravel(), _P_FLOOR, _P_CEIL)
        comp = self.locs + self.scales * special.ndtri(q)[:, None]
        lo, hi = comp.min(axis=1), comp.max(axis=1)
        x = comp @ self.weights
        dens_w = self.weights / (self.scales * math.sqrt(2.0 * math.pi))
        live = np.arange(q.size)
        for _ in range(100):
            xs = x[live]
            u = (xs[:, None] - self.locs) / self.scales
            f = special.ndtr(u) @ self.weights - q[live]
            lo_l = np.where(f < 0, xs, lo[live])
            hi_l = np.where(f > 0, xs, hi[live])
            with np.errstate(all="ignore"):
                step = f / (np.exp(-0.5 * u * u) @ dens_w)
            newton = xs - step
            tol = 1e-14 * (1.0 + np.abs(xs))
            close = np.abs(step) <= tol
            inside = close | ((newton > lo_l) & (newton < hi_l))
            x[live] = np.where(inside, np.clip(newton, lo_l, hi_l),
                               0.5 * (lo_l + hi_l))
            lo[live], hi[live] = lo_l, hi_l
            live = live[~(close | (hi_l - lo_l <= tol))]
            if not live.size:
                break
        return x.reshape(p.shape) if p.ndim else float(x[0])

    def sample(self, rng, n):
        idx = rng.choice(self.weights.size, size=n, p=self.weights)
        return self.locs[idx] + self.scales[idx] * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# multivariate distributions
# ---------------------------------------------------------------------------

def _rows(z, dim):
    """Points as an ``(n, dim)`` float array; any other shape is a mismatch."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != dim:
        raise DimensionMismatch(
            f"expected (n, {dim}) rows, got shape {z.shape}")
    return z


def _add_offset(out, v):
    """``out += v`` on rows, in place, one strided pass per column.

    Broadcasting runs numpy's inner loop once per d-wide row; the same IEEE
    additions by column give the same bits faster.  Inverses pass a copy
    and ``-v``, since ``x - v`` is ``x + (-v)`` bit for bit.
    """
    for j in range(out.shape[-1]):
        out[..., j] += v[j]
    return out


class Distribution(abc.ABC):
    """A fully supported probability measure on R^d.

    Subclasses provide ``log_density``, a sampler, ``conditional_cdf`` and
    its inverse ``conditional_quantile``.  Coordinates are indexed 0-based: the
    conditional for coordinate ``m`` conditions on coordinates ``0..m-1``.
    Points are ``(n, dim)`` float rows and per-point values ``(n,)`` arrays,
    in every method: a single ``(dim,)`` point is rejected with
    ``DimensionMismatch``, not broadcast.
    """

    #: whether conditional CDFs are available (transported laws may lack them)
    has_conditionals: bool = True

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        ...

    @abc.abstractmethod
    def log_density(self, z):
        ...

    def coordinate_support(self, m: int) -> tuple[float, float]:
        return (-np.inf, np.inf)

    @abc.abstractmethod
    def conditional_cdf(self, m: int, prefix, values):
        """CDF of coordinate ``m`` given the first ``m`` coordinates.

        ``prefix`` is an ``(n, m)`` array and ``values`` an ``(n,)`` array;
        row ``i`` of the prefix conditions ``values[i]``, and the result is
        an ``(n,)`` array.
        """
        ...

    def _prep_conditional(self, m, prefix, values):
        prefix = _rows(prefix, m)
        values = np.asarray(values, dtype=float)
        if values.shape != (prefix.shape[0],):
            raise DimensionMismatch(
                f"values must have shape ({prefix.shape[0]},), "
                f"got {values.shape}")
        return prefix, values

    @abc.abstractmethod
    def conditional_quantile(self, m: int, prefix, p):
        """Inverse of ``conditional_cdf`` in ``values`` at probabilities ``p``.

        ``prefix`` and ``p`` are shaped as in ``conditional_cdf``, and the
        result is an ``(n,)`` array.  ``p`` is clipped to
        ``[_P_FLOOR, _P_CEIL]``, so 0 and 1 give finite points.
        """
        ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int):
        """``n`` independent rows, shape ``(n, dim)``, drawn from ``rng``."""
        ...


class GaussianDistribution(Distribution):
    """Multivariate normal with exact conditionals in every coordinate."""

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(cov, dtype=float))
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise DimensionMismatch("covariance must be square and match mean")
        try:
            self.cholesky = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        self._log_det = 2.0 * np.sum(np.log(np.diag(self.cholesky)))
        self._cond_cache: dict[int, tuple[np.ndarray, float]] = {}

    @property
    def dim(self):
        return self.mean.shape[0]

    def log_density(self, z):
        c = _add_offset(np.array(_rows(z, self.dim)), -self.mean)
        w = np.linalg.solve(self.cholesky.T, np.linalg.solve(self.cholesky, c.T))
        quad = np.sum(c.T * w, axis=0)
        return -0.5 * (quad + self._log_det + self.dim * _LOG_2PI)

    def _cond_coef(self, m):
        """Regression coefficients and residual sd of coord m on 0..m-1."""
        if m not in self._cond_cache:
            if m == 0:
                beta = np.zeros(0)
                var = self.cov[0, 0]
            else:
                beta = np.linalg.solve(self.cov[:m, :m], self.cov[:m, m])
                var = self.cov[m, m] - self.cov[m, :m] @ beta
            self._cond_cache[m] = (beta, math.sqrt(max(var, 0.0)))
        return self._cond_cache[m]

    def _cond_moments(self, m, prefix):
        beta, sd = self._cond_coef(m)
        mu = self.mean[m] + (prefix - self.mean[:m]) @ beta
        return mu, sd

    def conditional_cdf(self, m, prefix, values):
        prefix2, v2 = self._prep_conditional(m, prefix, values)
        mu, sd = self._cond_moments(m, prefix2)
        return special.ndtr((v2 - mu) / sd)

    def conditional_quantile(self, m, prefix, p):
        """Closed form ``mu + sd * ndtri(p)``."""
        prefix2, p2 = self._prep_conditional(m, prefix, p)
        mu, sd = self._cond_moments(m, prefix2)
        return mu + sd * special.ndtri(np.clip(p2, _P_FLOOR, _P_CEIL))

    def sample(self, rng, n):
        """``mean + L e`` per row; the mean goes on by column."""
        return _add_offset(rng.standard_normal((n, self.dim)) @ self.cholesky.T,
                           self.mean)

    def marginal_ppf(self, m, p):
        sd = math.sqrt(self.cov[m, m])
        return self.mean[m] + sd * special.ndtri(np.asarray(p, dtype=float))


class ProductDistribution(Distribution):
    """Independent product of univariate marginals."""

    def __init__(self, marginals):
        self.marginals = list(marginals)
        if not self.marginals:
            raise DimensionMismatch("need at least one marginal")

    @property
    def dim(self):
        return len(self.marginals)

    def coordinate_support(self, m):
        return self.marginals[m].support

    def log_density(self, z):
        z2 = _rows(z, self.dim)
        out = np.zeros(z2.shape[0])
        for m, marg in enumerate(self.marginals):
            out += marg.log_pdf(z2[:, m])
        return out

    def conditional_cdf(self, m, prefix, values):
        _, v2 = self._prep_conditional(m, prefix, values)
        return self.marginals[m].cdf(v2)

    def conditional_quantile(self, m, prefix, p):
        """The marginal's quantile."""
        _, p2 = self._prep_conditional(m, prefix, p)
        return self.marginals[m].ppf(np.clip(p2, _P_FLOOR, _P_CEIL))

    def sample(self, rng, n):
        return np.column_stack([marg.sample(rng, n) for marg in self.marginals])

    def marginal_ppf(self, m, p):
        return self.marginals[m].ppf(p)


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """``scipy.integrate.cumulative_simpson(y, dx=dx)`` on >= 3 points, to
    its bits: interval k integrates its left (h1) or, at odd k and the last
    interval, its right (h2) three-point neighbourhood."""
    def h1(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)
    h2 = h1(y[::-1])[::-1]
    parts = np.empty(y.shape[0] - 1)
    parts[:-1:2], parts[1::2], parts[-1] = h1(y)[::2], h2[::2], h2[-1]
    return np.cumsum(parts)


class _TiltedMarginal(Univariate):
    """Scalar tilted law  q(x) exp(eta T(x) - A(eta))  on a truncated interval.

    Its CDF is a piecewise-linear table on ``_GRID`` points, built lazily.
    """

    _GRID = 4097

    def __init__(self, log_base, suff_stat, log_partition, eta, bounds):
        self.log_base = log_base
        self.suff_stat = suff_stat
        self.eta = float(eta)
        self.support = (float(bounds[0]), float(bounds[1]))
        self._log_a = float(log_partition(self.eta))
        self._table = None

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.log_base(x) + self.eta * self.suff_stat(x) - self._log_a

    def _cdf_table(self):
        """The grid and its normalized CDF, built once."""
        if self._table is None:
            grid = np.linspace(*self.support, self._GRID)
            cdf = np.concatenate([[0.0], _cumulative_simpson(
                np.exp(self.log_pdf(grid)), grid[1] - grid[0])])
            cdf = np.maximum.accumulate(cdf)
            if cdf[-1] <= 0:
                raise BracketFailure("tilted marginal has no mass on its box")
            self._table = (grid, cdf / cdf[-1])
        return self._table

    def cdf(self, x):
        grid, cdf = self._cdf_table()
        return np.interp(x, grid, cdf, left=0.0, right=1.0)

    def ppf(self, p):
        """Exact inverse of the tabulated ``cdf``.

        ``p`` is clipped to ``[_P_FLOOR, _P_CEIL]``, so it lies on the first
        grid segment whose right end reaches it and is solved linearly there.
        """
        grid, cdf = self._cdf_table()
        p = np.clip(np.asarray(p, dtype=float), _P_FLOOR, _P_CEIL)
        k = np.searchsorted(cdf, p, side="left")
        c0, x0 = cdf[k - 1], grid[k - 1]
        return x0 + (p - c0) / (cdf[k] - c0) * (grid[k] - x0)

    def sample(self, rng, n):
        return self.ppf(rng.random(n))


class ExpFamily(ProductDistribution):
    """Conditionally factorial exponential family, the iVAE prior.

    The density is  prod_i q(z_i) exp(eta_i T(z_i) - A(eta_i)): every
    coordinate shares one scalar carrier ``log_base`` (log q), statistic
    ``suff_stat`` (T) and partition ``log_partition`` (A), and has its own
    natural parameter and ``(lo, hi)`` bounds, chosen so the tail mass
    outside them is below 1e-12.  Those callables act elementwise, and the
    methods of the same names apply them across coordinates, so density
    ratios and kernel diagnostics can be formed symbolically in eta.  Each
    marginal tabulates its CDF once on its interval and inverts the table
    exactly, so the family works in any dimension with O(d * grid) memory.
    """

    def __init__(self, log_base, suff_stat, log_partition, eta, bounds):
        self.eta = np.atleast_1d(np.asarray(eta, dtype=float))
        bounds = np.asarray(bounds, dtype=float)
        if self.eta.ndim != 1 or bounds.shape != (self.eta.size, 2):
            raise DimensionMismatch("need one (lo, hi) row per eta entry")
        self._scalar = (log_base, suff_stat, log_partition)
        super().__init__([_TiltedMarginal(*self._scalar, e, b)
                          for e, b in zip(self.eta, bounds)])

    @classmethod
    def gaussian_mean_family(cls, eta):
        """Normal with identity covariance, natural parameter = mean."""
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        bounds = np.column_stack([eta - 12.0, eta + 12.0])
        return cls(lambda x: -0.5 * x * x - 0.5 * _LOG_2PI, lambda x: x,
                   lambda e: 0.5 * e * e, eta, bounds=bounds)

    def log_base(self, z):
        """Log carrier  sum_i log q(z_i)  of each row."""
        return self._scalar[0](_rows(z, self.dim)).sum(axis=1)

    def suff_stat(self, z):
        """Statistic rows  (T(z_1), ..., T(z_d)),  shape ``(n, dim)``."""
        return self._scalar[1](_rows(z, self.dim))

    def log_partition(self, eta):
        """Log partition  sum_i A(eta_i)."""
        return float(np.sum(self._scalar[2](np.asarray(eta, dtype=float))))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def sample(dist: Distribution, rng: np.random.Generator, n: int):
    """Draw ``n`` rows from ``dist`` using the given stream."""
    if n <= 0:
        raise ValueError("n must be positive")
    return dist.sample(rng, n)


def interdecile_box(dist: Distribution) -> np.ndarray:
    """Per-coordinate [q10, q90] box of the marginals, shape (dim, 2)."""
    if isinstance(dist, (GaussianDistribution, ProductDistribution)):
        lo = [dist.marginal_ppf(m, 0.1) for m in range(dist.dim)]
        hi = [dist.marginal_ppf(m, 0.9) for m in range(dist.dim)]
        return np.column_stack([lo, hi]).astype(float)
    raise TypeError("interdecile box needs analytic marginal quantiles")


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

_UNIVARIATE_KINDS = {
    "normal": lambda s: Normal1D(s.get("loc", 0.0), s.get("scale", 1.0)),
    "laplace": lambda s: Laplace1D(s.get("loc", 0.0), s.get("scale", 1.0)),
    "logistic": lambda s: Logistic1D(s.get("loc", 0.0), s.get("scale", 1.0)),
    "exponential": lambda s: Exponential1D(s.get("rate", 1.0)),
    "gaussian_mixture": lambda s: GaussianMixture1D(
        s["weights"], s["locs"], s["scales"]),
}

_EXPFAM_FAMILIES = {
    "gaussian_mean": lambda s: ExpFamily.gaussian_mean_family(s["eta"]),
}


def univariate_from_spec(spec: dict) -> Univariate:
    kind = spec.get("kind")
    if kind not in _UNIVARIATE_KINDS:
        raise ValueError(f"unknown marginal kind: {kind!r}")
    return _UNIVARIATE_KINDS[kind](spec)


def distribution_from_spec(spec: dict) -> Distribution:
    """Rebuild a distribution from its JSON record."""
    kind = spec.get("kind")
    if kind == "gaussian":
        return GaussianDistribution(spec["mean"], spec["cov"])
    if kind == "product":
        return ProductDistribution(
            [univariate_from_spec(m) for m in spec["marginals"]])
    if kind == "expfam":
        family = spec.get("family")
        if family not in _EXPFAM_FAMILIES:
            raise ValueError(f"unknown exponential family: {family!r}")
        return _EXPFAM_FAMILIES[family](spec)
    raise ValueError(f"unknown distribution kind: {kind!r}")
