"""Probability measures used as latent priors and transport endpoints.

The module provides a small zoo of fully supported distributions behind one
`Distribution` interface: exact densities in log space, samplers driven by
counter-based streams, and the Rosenblatt (1952) transform with its
inverse.  `rosenblatt` sweeps whole rows to their conditional-CDF uniforms
and `inverse_rosenblatt` solves them back, column by column; that pair is
all triangular transport and the pushforward checks need.  Gaussian laws
and products of normal, Laplace or logistic marginals give their
conditional quantiles in closed form.  The Gaussian mixture marginal is
the one law whose quantile is found iteratively: Newton steps on its exact
CDF, started and bracketed by a cached table of that CDF.  Elementwise work
on rows goes by column (`_add_offset`, the mixture's component columns): it
gives the bits of numpy's broadcast without its slow loop over short rows.

`ExpFamily` is the conditionally factorial exponential family of the iVAE
prior: a product of 1-D laws that share one scalar carrier, statistic and
log-partition, each with its own natural parameter.  It carries those
callables explicitly, which is what the environment and indeterminacy
machinery consumes, and each coordinate's law is the family's closed-form
member at its natural parameter, so the family samples and inverts exactly.
"""

from __future__ import annotations

import abc
import functools
import math

import numpy as np
from scipy import special

from .errors import BracketFailure, DimensionMismatch, SingularMatrix

__all__ = [
    "Univariate",
    "Normal1D",
    "Laplace1D",
    "Logistic1D",
    "GaussianMixture1D",
    "Distribution",
    "GaussianDistribution",
    "ProductDistribution",
    "ExpFamily",
    "sample",
    "interdecile_box",
    "interdecile_grid",
    "distribution_from_spec",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Probabilities are clipped to this open sub-interval of (0, 1) before
# inversion; beyond it double precision cannot tell the CDF apart from 0 or 1.
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16

# Knots of a Gaussian mixture's CDF table, which only starts the Newton
# steps: grid, CDF and density take 48 KB.  Its bucket index splits [0, 1]
# into _BUCKETS equal parts; a probability's segment is found by at most
# _BUCKET_STEPS advances within its bucket, or searched for in a wider one.
_MIXTURE_POINTS = 2049
_BUCKETS = 1024
_BUCKET_STEPS = 4


def _log_sum_exp(cols, b):
    """``scipy.special.logsumexp(a, axis=-1, b=b)`` for the columns ``cols``
    of real ``a`` and positive weights ``b``, to its bits: SciPy 1.17's
    steps, op for op, each a pass over whole columns.

    The largest term of each row is split off (``m`` sums the weights of
    its ties) and the rest are summed shifted by it, as
    ``log1p(s / m) + log(m) + a_max``.  Where that is not finite, as at
    ``a_max = -inf``, it is replaced by the direct ``log(sum(b exp(a)))``.
    Floating-point errors are ignored in both, as SciPy ignores them.  Sums
    run left to right, numpy's order for fewer than eight terms.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = functools.reduce(np.maximum, cols)
        mask = [c == a_max for c in cols]
        m = sum(w * t for w, t in zip(b, mask))
        s = sum(w * np.exp(np.where(t, -np.inf, c) - a_max)
                for w, t, c in zip(b, mask, cols))
        s = np.where(s == 0, s, s / m)
        out = np.asarray(np.log1p(s) + np.log(m) + a_max)
    bad = ~np.isfinite(out)
    if np.any(bad):
        with np.errstate(all="ignore"):
            out[bad] = np.log(sum(w * np.exp(c[bad]) for w, c in zip(b, cols)))
    return out[()]


# ---------------------------------------------------------------------------
# univariate building blocks
# ---------------------------------------------------------------------------

class Univariate(abc.ABC):
    """A scalar distribution with exact CDF, used as a product marginal."""

    kind: str = ""

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


class _LocScale(Univariate):
    """A law of ``loc + scale * u``, ``u`` drawn from a standard law."""

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        self.loc = float(loc)
        self.scale = float(scale)
        if not math.isfinite(self.loc):
            raise ValueError("loc must be finite")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")


class Normal1D(_LocScale):
    kind = "normal"

    def log_pdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return -0.5 * u * u - math.log(self.scale) - 0.5 * _LOG_2PI

    def cdf(self, x):
        return special.ndtr((np.asarray(x, dtype=float) - self.loc) / self.scale)

    def ppf(self, p):
        return self.loc + self.scale * special.ndtri(np.asarray(p, dtype=float))

    def sample(self, rng, n):
        return self.loc + self.scale * rng.standard_normal(n)


class Laplace1D(_LocScale):
    kind = "laplace"

    def log_pdf(self, x):
        u = np.abs(np.asarray(x, dtype=float) - self.loc) / self.scale
        return -u - math.log(2.0 * self.scale)

    def cdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        lower = u < 0
        # one exponential serves both tails, since -|u| is u where u < 0; u
        # goes before the upper tail is formed
        h = 0.5 * np.exp(-np.abs(u))
        del u
        return np.where(lower, h, 1.0 - h)

    def ppf(self, p):
        p = np.asarray(p, dtype=float)
        t = np.log(2.0 * np.minimum(p, 1.0 - p))  # one log: p or the exact 1 - p
        t *= np.copysign(self.scale, p - 0.5)
        return self.loc - t

    def sample(self, rng, n):
        return rng.laplace(self.loc, self.scale, n)


class Logistic1D(_LocScale):
    kind = "logistic"

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


class GaussianMixture1D(Univariate):
    """Finite mixture of normals; the CDF is exact, the quantile is inverted."""

    kind = "gaussian_mixture"

    def __init__(self, weights, locs, scales):
        self.weights = np.asarray(weights, dtype=float)
        self.locs = np.asarray(locs, dtype=float)
        self.scales = np.asarray(scales, dtype=float)
        if not (self.weights.shape == self.locs.shape == self.scales.shape):
            raise DimensionMismatch("mixture parameter arrays must align")
        for name in ("weights", "locs", "scales"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.weights <= 0) or np.any(self.scales <= 0):
            raise ValueError("weights and scales must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        self._dens_w = self.weights / (self.scales * math.sqrt(2.0 * math.pi))
        self._table = None

    def _args(self, x):
        """Component arguments ``(x - loc_k) / scale_k``, shape ``x.shape +
        (K,)``, built one column per component: the broadcast's bits, without
        its inner loop over K-wide rows."""
        u = np.empty(x.shape + self.locs.shape)
        for k, (loc, scale) in enumerate(zip(self.locs, self.scales)):
            np.divide(x - loc, scale, out=u[..., k])
        return u

    def log_pdf(self, x):
        u = [(np.asarray(x, dtype=float) - loc) / scale
             for loc, scale in zip(self.locs, self.scales)]
        return _log_sum_exp([-0.5 * v * v - log_s - 0.5 * _LOG_2PI
                             for v, log_s in zip(u, np.log(self.scales))],
                            self.weights)

    def cdf(self, x):
        return special.ndtr(self._args(np.asarray(x, dtype=float))) @ self.weights

    def _cdf_table(self):
        """The CDF and density on ``_MIXTURE_POINTS`` knots spanning the
        extreme component quantiles at ``_P_FLOOR`` and ``_P_CEIL``, built
        once, with a bucket index into the CDF.

        The CDF is made monotone and its ends are set to 0 and 1, which the
        CDF at those knots differs from by rounding (or weights summing below
        one), so every clipped probability falls on a segment.  Bucket ``j``
        holds the probabilities in ``[j, j + 1) / _BUCKETS``: ``first[j]`` is
        ``searchsorted(cdf, j / _BUCKETS)``, and ``wide[j]`` marks a bucket
        spanning more than ``_BUCKET_STEPS`` knots.
        """
        if self._table is None:
            ends = self.locs + self.scales * special.ndtri([[_P_FLOOR], [_P_CEIL]])
            grid = np.linspace(ends[0].min(), ends[1].max(), _MIXTURE_POINTS)
            u = self._args(grid)
            cdf = np.maximum.accumulate(special.ndtr(u) @ self.weights)
            cdf[0], cdf[-1] = 0.0, 1.0
            dens = np.exp(-0.5 * u * u) @ self._dens_w
            first = np.searchsorted(cdf, np.arange(_BUCKETS + 1) / _BUCKETS)
            self._table = (grid, cdf, dens, first,
                           np.diff(first) > _BUCKET_STEPS)
        return self._table

    def _segment(self, q):
        """``searchsorted(cdf, q, side="left")`` on the table, for ``q`` in
        ``(0, 1)``: the first knot whose CDF reaches ``q``.

        ``q * _BUCKETS`` only shifts the exponent, so its floor ``j`` is the
        exact bucket, and the knot lies in ``[first[j], first[j + 1]]``.
        ``_BUCKET_STEPS`` advances from ``first[j]`` reach it unless the
        bucket is wide (the far tails), where it is searched for.
        """
        _, cdf, _, first, wide = self._cdf_table()
        j = (q * _BUCKETS).astype(np.intp)
        k = first[j]
        for _ in range(_BUCKET_STEPS):
            k += cdf[k] < q
        far = wide[j]
        if far.any():
            k[far] = np.searchsorted(cdf, q[far], side="left")
        return k

    def ppf(self, p):
        """Quantile by Newton steps on the CDF, started from the CDF table.

        The mixture quantile lies between the extreme component quantiles,
        which the table spans, so ``p`` falls on one table segment, whose two
        knots are the starting bracket.  The start is the cubic Hermite
        inverse on that segment, with end slopes one over the tabulated
        density.  Each evaluated point tightens the bracket, and a Newton
        step that would not land strictly inside it is replaced by
        bisection.  A row stops once its Newton correction or its bracket is
        below 1e-14 relative (the bracket test ends the two-point cycles that
        CDF rounding causes in the tails), or once the error left after its
        Newton step, predicted from the CDF's curvature as
        ``|F''| / (2 F') * step**2``, is below 2% of that.  Most rows stop
        after one CDF evaluation.  A row still open after 100 steps raises
        ``BracketFailure``; a NaN probability gives NaN.
        """
        p = np.asarray(p, dtype=float)
        q = np.clip(np.atleast_1d(p).ravel(), _P_FLOOR, _P_CEIL)
        ok = ~np.isnan(q)
        if ok.all():  # no copies of a batch without NaN
            x = self._solve(q)
        else:
            x = np.full(q.size, np.nan)
            x[ok] = self._solve(q[ok])
        return x.reshape(p.shape) if p.ndim else float(x[0])

    def _start(self, q):
        """The cubic Hermite inverse of the table at ``q``, and the knots of
        ``q``'s segment.

        On the segment, ``t = (q - c0) / dc`` is the linear start; the end
        slopes of ``x(t)`` are ``dc / (f h)`` at knot densities ``f``.  The
        cubic's offset is clipped to the segment, and replaced by ``t`` where
        it is not finite (a density that underflowed to 0).  Its temporaries
        are freed on return, before the Newton loop allocates its own, so
        they do not add to the quantile's memory peak.
        """
        grid, cdf, dens, _, _ = self._cdf_table()
        k = self._segment(q)
        lo, hi = grid[k - 1], grid[k]
        c0, dc, h = cdf[k - 1], cdf[k] - cdf[k - 1], hi - lo
        t = (q - c0) / dc
        with np.errstate(all="ignore"):
            m0, m1 = dc / (dens[k - 1] * h), dc / (dens[k] * h)
            s = t * t * (3.0 - 2.0 * t) + t * (1.0 - t) * ((1.0 - t) * m0 - t * m1)
            x = lo + np.where(np.isfinite(s), np.clip(s, 0.0, 1.0), t) * h
        return x, lo, hi

    def _solve(self, q):
        """The quantiles of ``ppf`` at clipped, non-NaN probabilities; the
        loop keeps the open rows alone and writes each step's ``x`` once."""
        x, lo, hi = self._start(q)
        out, rows = x, np.arange(q.size)
        curv_w = self._dens_w / self.scales
        for _ in range(100):
            u = self._args(x)
            f = special.ndtr(u) @ self.weights - q
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            e = np.exp(-0.5 * u * u)
            slope = e @ self._dens_w
            with np.errstate(all="ignore"):
                step = f / slope
                # Newton's error after the step, |F''| / (2 F') * step**2
                left = np.abs(np.multiply(u, e, out=e) @ curv_w / slope)
                left *= 0.5 * step * step
            del u, e, f, slope  # before the update's temporaries
            newton = x - step
            tol = 1e-14 * (1.0 + np.abs(x))
            close = np.abs(step) <= tol
            strict = (newton > lo) & (newton < hi)
            x = np.where(close | strict, np.clip(newton, lo, hi),
                         0.5 * (lo + hi))
            out[rows] = x
            keep = ~(close | (strict & (left <= 0.02 * tol)) | (hi - lo <= tol))
            if not keep.any():
                break
            x, lo, hi, q, rows = x[keep], lo[keep], hi[keep], q[keep], rows[keep]
        else:
            raise BracketFailure(
                f"mixture quantile did not converge for {rows.size} of "
                f"{out.size} probabilities in 100 Newton steps")
        return out

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


def _finite(a, name: str) -> np.ndarray:
    """``a`` unchanged; ``SingularMatrix`` naming ``name`` if an entry is not
    finite, since a fit can build such a map or generator mid-run."""
    if not np.all(np.isfinite(a)):
        raise SingularMatrix(f"{name} has non-finite entries")
    return a


def _offset(offset, d: int) -> np.ndarray:
    """``offset`` as a finite length-``d`` float vector; zeros for ``None``."""
    b = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)
    if b.shape != (d,):
        raise DimensionMismatch(f"offset must have length {d}")
    return _finite(b, "offset")


def _add_offset(out, v):
    """``out += v`` on rows, in place, one strided pass per column.

    Broadcasting runs numpy's inner loop once per d-wide row; the same IEEE
    additions by column give the same bits faster.  Inverses pass a copy
    and ``-v``, since ``x - v`` is ``x + (-v)`` bit for bit.
    """
    for j in range(out.shape[-1]):
        out[..., j] += v[j]
    return out


#: OpenBLAS gives each thread of a gemm at least 2**18 multiply-adds, so a
#: product of at most this many stays on the calling thread; a larger one
#: wakes a worker, which spins ~0.13 s of CPU after a sub-millisecond
#: (10**4, 8) @ (8, 8) product
_BLOCK_WORK = 1 << 18


def _matmul_rows(X, MT):
    """``X @ MT`` for ``(n, k)`` rows, with no BLAS worker woken.

    A product of more than ``_BLOCK_WORK`` multiply-adds is taken in row
    blocks of at most that many each.  The blocks differ in size by at most
    one row, which keeps the bits of ``X @ MT`` on every shape the tests
    cover; a short trailing block runs through another kernel and moves
    some last bits.  A one-column ``MT`` stays one ``@``: that is a gemv
    call, whose bits blocking moves, and a large gemv still wakes a worker.
    """
    per_block = max(1, _BLOCK_WORK // max(1, MT.size))  # MT.size is k * m
    if X.shape[0] <= per_block or MT.shape[1] == 1:
        return X @ MT
    n = X.shape[0]
    blocks = -(-n // per_block)
    out = np.empty((n, MT.shape[1]))
    for b in range(blocks):
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        np.matmul(X[lo:hi], MT, out=out[lo:hi])
    return out


def _solve_lower(L, B):
    """``L^-1 B`` for lower-triangular ``L`` by forward substitution.

    Unlike SciPy's solve it hands no small system to a BLAS pool, but each
    row update ``L[i, :i] @ X[:i]`` is a gemv over the ``n`` columns of ``B``,
    which wakes a BLAS worker once ``n`` is large (~0.13 s of spin at d = 8,
    n = 10**5).  Rows scale by the reciprocal of the diagonal, as OpenBLAS's
    trsm does; dividing would move the last bit of some results."""
    X = np.array(B, dtype=float)
    for i in range(X.shape[0]):
        X[i] -= L[i, :i] @ X[:i]
        X[i] *= 1.0 / L[i, i]
    return X


class Distribution(abc.ABC):
    """A fully supported probability measure on R^d.

    Subclasses provide ``log_density``, a sampler and the Knothe-Rosenblatt
    pair: ``rosenblatt`` sends rows to their conditional-CDF uniforms and
    ``inverse_rosenblatt`` solves them back, each as one whole-row sweep.
    Coordinates are indexed 0-based: column ``m`` of the sweep conditions on
    columns ``0..m-1``.  Points are ``(n, dim)`` float rows and per-point
    values ``(n,)`` arrays, in every method: a single ``(dim,)`` point is
    rejected with ``DimensionMismatch``, not broadcast.
    """

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        ...

    @abc.abstractmethod
    def log_density(self, z):
        ...

    @abc.abstractmethod
    def rosenblatt(self, X):
        """The conditional-CDF sweep of ``(n, dim)`` rows, F-ordered: column
        ``m`` is coordinate ``m``'s CDF given columns ``0..m-1`` of its row.
        Under ``X`` drawn from the law the columns are i.i.d. uniform on
        (0, 1), and contiguous, for the KS sorts."""
        ...

    @abc.abstractmethod
    def inverse_rosenblatt(self, U):
        """The rows ``X`` whose ``rosenblatt`` is ``U``, solved column by
        column; ``U`` is clipped to ``[_P_FLOOR, _P_CEIL]``, so 0 and 1 give
        finite points."""
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
        if d == 0:
            raise DimensionMismatch("need at least one coordinate")
        if self.cov.shape != (d, d):
            raise DimensionMismatch("covariance must be square and match mean")
        for name in ("mean", "cov"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
        quad = np.sum(_solve_lower(self.cholesky, c.T) ** 2, axis=0)
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

    def _moments(self, m, centred, out):
        """Coordinate ``m``'s conditional mean, in ``out``, and sd: ``mean[m]``
        plus the gemv ``centred[:, :m] @ beta`` on the prefix columns less
        their means, or ``mean[0]`` itself."""
        beta, sd = self._cond_coef(m)
        if m == 0:
            out[...] = self.mean[0]
        else:
            np.matmul(centred[:, :m], beta, out=out)
            out += self.mean[m]
        return out, sd

    def rosenblatt(self, X):
        """The sweep, the prefix centred once into one C-ordered block; column
        ``m`` is ``ndtr((x_m - mu) / sd)``, formed in place."""
        X = _rows(X, self.dim)
        centred = _add_offset(np.array(X[:, :-1]), -self.mean[:-1])
        U = np.empty(X.shape, order="F")
        for m in range(self.dim):
            u, sd = self._moments(m, centred, U[:, m])
            np.subtract(X[:, m], u, out=u)
            u /= sd
            special.ndtr(u, out=u)
        return U

    def inverse_rosenblatt(self, U):
        """The sweep, ``mu + sd * ndtri(u_m)`` per column, each solved column
        centred into one C-ordered block."""
        U = _rows(U, self.dim)
        centred = np.empty((U.shape[0], self.dim - 1))
        X = np.empty(U.shape)
        for m in range(self.dim):
            x, sd = self._moments(m, centred, X[:, m])
            x += sd * special.ndtri(np.clip(U[:, m], _P_FLOOR, _P_CEIL))
            if m < self.dim - 1:
                np.subtract(x, self.mean[m], out=centred[:, m])
        return X

    def sample(self, rng, n):
        """``mean + L e`` per row; the mean goes on by column."""
        return _add_offset(_matmul_rows(rng.standard_normal((n, self.dim)),
                                        self.cholesky.T), self.mean)

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

    def log_density(self, z):
        z2 = _rows(z, self.dim)
        out = np.zeros(z2.shape[0])
        for m, marg in enumerate(self.marginals):
            out += marg.log_pdf(z2[:, m])
        return out

    def rosenblatt(self, X):
        """Each marginal's CDF on its own column."""
        X = _rows(X, self.dim)
        U = np.empty(X.shape, order="F")
        for m, marg in enumerate(self.marginals):
            U[:, m] = marg.cdf(X[:, m])
        return U

    def inverse_rosenblatt(self, U):
        """Each marginal's quantile on its own column."""
        U = _rows(U, self.dim)
        X = np.empty(U.shape)
        for m, marg in enumerate(self.marginals):
            X[:, m] = marg.ppf(np.clip(U[:, m], _P_FLOOR, _P_CEIL))
        return X

    def sample(self, rng, n):
        return np.column_stack([marg.sample(rng, n) for marg in self.marginals])

    def marginal_ppf(self, m, p):
        return self.marginals[m].ppf(p)


class ExpFamily(ProductDistribution):
    """Conditionally factorial exponential family, the iVAE prior.

    The density is  prod_i q(z_i) exp(eta_i T(z_i) - A(eta_i)): every
    coordinate shares one scalar carrier ``log_base`` (log q), statistic
    ``suff_stat`` (T) and partition ``log_partition`` (A), and has its own
    natural parameter.  Those callables act elementwise, and the methods of
    the same names apply them across coordinates, so density ratios and
    kernel diagnostics can be formed symbolically in eta.  ``member`` maps
    one natural parameter to that coordinate's law in closed form, so the
    family samples and inverts its marginals exactly in any dimension.
    """

    def __init__(self, log_base, suff_stat, log_partition, eta, member):
        self.eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if self.eta.ndim != 1:
            raise DimensionMismatch("need one natural parameter per coordinate")
        if not np.all(np.isfinite(self.eta)):
            raise ValueError("eta must be finite")
        self._scalar = (log_base, suff_stat, log_partition)
        self.member = member
        super().__init__([member(e) for e in self.eta])

    @classmethod
    def gaussian_mean_family(cls, eta):
        """Normal with identity covariance, natural parameter = mean: each
        member is ``Normal1D(eta_i, 1)``."""
        return cls(lambda x: -0.5 * x * x - 0.5 * _LOG_2PI, lambda x: x,
                   lambda e: 0.5 * e * e, eta, Normal1D)

    def at(self, eta) -> "ExpFamily":
        """This family (carrier, statistic, partition and ``member``) at the
        natural parameters ``eta``."""
        return ExpFamily(*self._scalar, eta, self.member)

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


def interdecile_grid(dist: Distribution, per_axis: int) -> np.ndarray:
    """``per_axis ** dim`` rows evenly spanning ``interdecile_box(dist)``,
    the last coordinate varying fastest."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in interdecile_box(dist)]
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, dist.dim)


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

_UNIVARIATE_KINDS = {
    **{cls.kind: lambda s, cls=cls: cls(s.get("loc", 0.0), s.get("scale", 1.0))
       for cls in (Normal1D, Laplace1D, Logistic1D)},
    "gaussian_mixture": lambda s: GaussianMixture1D(
        s["weights"], s["locs"], s["scales"]),
}

_EXPFAM_FAMILIES = {
    "gaussian_mean": lambda s: ExpFamily.gaussian_mean_family(s["eta"]),
}


def _marginal_from_spec(spec: dict) -> Univariate:
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
            [_marginal_from_spec(m) for m in spec["marginals"]])
    if kind == "expfam":
        family = spec.get("family")
        if family not in _EXPFAM_FAMILIES:
            raise ValueError(f"unknown exponential family: {family!r}")
        return _EXPFAM_FAMILIES[family](spec)
    raise ValueError(f"unknown distribution kind: {kind!r}")
