"""Latent maps: triangular monotone transports and general automorphisms.

Every latent map answers one protocol: ``dim``, ``forward``, ``inverse``,
``inverted()`` and ``log_det_jacobian``.

A triangular monotone increasing (TMI) map sends coordinate ``m`` to a value
that depends only on coordinates ``0..m`` and increases strictly in
coordinate ``m``.  Each is written as a sweep over coordinates:
``forward_prefix`` maps the first ``k`` input columns to the first ``k``
output columns, and ``forward``, the finite-difference log-det fallback and
every composition are built on it.  Three representations cover the
laboratory's needs:

* ``AffineMap`` - lower-triangular matrix with positive diagonal plus offset;
* ``CdfChainMap`` - the conditional-CDF recursion between two distributions,
  which is the canonical coordinatewise transport (source conditional CDF
  composed with the target's conditional quantile, sweeping coordinates);
* ``ComposedMap`` - composition chain of TMI maps (closed under composition).

``Automorphism`` covers the other latent self-maps, built from a forward
and an inverse callable, optionally with a constant log-det.

The module also ships the statistical verifiers used throughout: a
Rosenblatt-reduction goodness-of-fit check for pushforwards and
finite-difference structure checks (componentwise / triangular).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, NonFiniteDerivative
from .measures import Distribution, GaussianDistribution, _add_offset, _rows

__all__ = [
    "TriangularMap",
    "AffineMap",
    "CdfChainMap",
    "ComposedMap",
    "Automorphism",
    "PushforwardReport",
    "StructureReport",
    "kr_transport",
    "log_det_jacobian",
    "rosenblatt",
    "pushforward_check",
    "component_wise_check",
    "jacobian_fd",
]

#: central-difference step of every finite-difference Jacobian
_STEP = 1e-5


class TriangularMap(abc.ABC):
    """Triangular monotone increasing map on R^d."""

    dim: int

    @property
    def latent_dim(self) -> int:
        return self.dim

    @abc.abstractmethod
    def forward_prefix(self, P):
        """Apply the map to the first ``k`` coordinates only, (n, k) rows.

        Output column ``m`` reads input columns ``0..m`` alone, so the first
        ``k`` columns of ``forward`` equal ``forward_prefix`` on the first
        ``k`` input columns.
        """
        ...

    @abc.abstractmethod
    def inverse(self, X):
        """Solve ``forward(z) = x`` for ``z``, row by row."""
        ...

    @abc.abstractmethod
    def inverted(self) -> "TriangularMap":
        """The inverse map as a TMI object."""
        ...

    def forward(self, Z):
        return self.forward_prefix(_rows(Z, self.dim))

    def log_det_jacobian(self, Z):
        """Sum over coordinates of log dT_m/dz_m, central differences.

        Column ``m`` of the input is moved by ``+_STEP`` and ``-_STEP`` and
        column ``m`` of ``forward_prefix`` on the first ``m + 1`` columns is
        read off.
        """
        Z2 = _rows(Z, self.dim)
        out = np.zeros(Z2.shape[0])
        for m in range(self.dim):
            hi = Z2[:, :m + 1].copy()
            hi[:, m] = Z2[:, m] + _STEP
            lo = Z2[:, :m + 1].copy()
            lo[:, m] = Z2[:, m] - _STEP
            slope = (self.forward_prefix(hi)[:, m]
                     - self.forward_prefix(lo)[:, m]) / (2.0 * _STEP)
            if np.any(~np.isfinite(slope)) or np.any(slope <= 0):
                raise NonFiniteDerivative(
                    f"component {m} has non-positive or non-finite slope")
            out += np.log(slope)
        return out


class AffineMap(TriangularMap):
    """x -> offset + L x with L lower triangular, positive diagonal."""

    def __init__(self, matrix, offset=None):
        L = np.atleast_2d(np.asarray(matrix, dtype=float))
        if L.shape[0] != L.shape[1]:
            raise DimensionMismatch("matrix must be square")
        scale = max(1.0, float(np.abs(L).max()))
        upper = np.triu(L, 1)
        if np.abs(upper).max() > 1e-12 * scale:
            raise ValueError("matrix must be lower triangular")
        if np.any(np.diag(L) <= 0):
            raise ValueError("diagonal entries must be strictly positive")
        self.matrix = np.tril(L)
        self.offset = _offset(offset, L.shape[0])
        self.dim = L.shape[0]

    def forward_prefix(self, P):
        # the offset goes on, and in inverse comes off a copy, by column,
        # which is cheaper than broadcasting (see measures._add_offset)
        P = np.asarray(P, dtype=float)
        k = P.shape[1]
        return _add_offset(P @ self.matrix[:k, :k].T, self.offset[:k])

    def inverse(self, X):
        X2 = _add_offset(np.array(_rows(X, self.dim)), -self.offset)
        return solve_triangular(self.matrix, X2.T, lower=True).T

    def inverted(self):
        inv = solve_triangular(self.matrix, np.eye(self.dim), lower=True)
        return AffineMap(inv, -inv @ self.offset)

    def log_det_jacobian(self, Z):
        return np.full(_rows(Z, self.dim).shape[0],
                       np.sum(np.log(np.diag(self.matrix))))


class CdfChainMap(TriangularMap):
    """Coordinatewise conditional-CDF transport from ``source`` to ``target``.

    Coordinate ``m`` sends ``x_m`` through the source conditional CDF given
    the raw prefix, then through the target conditional quantile given the
    already-mapped prefix.  The mapped prefix acts as the per-point cache of
    earlier components, so a full evaluation is a single coordinate sweep.
    Gaussian and closed-form product targets give the quantile in closed
    form; others invert their conditional CDF.  The log-det is the exact
    density ratio ``log p_source(z) - log p_target(T z)`` of a KR map.
    """

    def __init__(self, source: Distribution, target: Distribution):
        if source.dim != target.dim:
            raise DimensionMismatch("source and target dimension differ")
        self.source = source
        self.target = target
        self.dim = source.dim

    def forward_prefix(self, P):
        P = np.asarray(P, dtype=float)
        n, k = P.shape
        out = np.empty((n, k))
        for m in range(k):
            u = self.source.conditional_cdf(m, P[:, :m], P[:, m])
            out[:, m] = self.target.conditional_quantile(m, out[:, :m], u)
        return out

    def inverse(self, X):
        return self.inverted().forward(X)

    def log_det_jacobian(self, Z):
        """Exact ``log p_source(z) - log p_target(T z)``."""
        Z2 = _rows(Z, self.dim)
        out = (self.source.log_density(Z2)
               - self.target.log_density(self.forward_prefix(Z2)))
        if not np.all(np.isfinite(out)):
            raise NonFiniteDerivative("log-det is not finite off the support")
        return out

    def inverted(self):
        return CdfChainMap(self.target, self.source)


class ComposedMap(TriangularMap):
    """Composition of TMI maps, applied first-to-last; itself TMI."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise DimensionMismatch("need at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise DimensionMismatch("all parts must share a dimension")
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, ComposedMap) else [p])
        self.parts = flat
        self.dim = parts[0].dim

    def forward_prefix(self, P):
        out = np.asarray(P, dtype=float)
        for p in self.parts:
            out = p.forward_prefix(out)
        return out

    def inverse(self, X):
        out = _rows(X, self.dim)
        for p in reversed(self.parts):
            out = p.inverse(out)
        return out

    def inverted(self):
        return ComposedMap([p.inverted() for p in reversed(self.parts)])

    def log_det_jacobian(self, Z):
        """Exact chain rule: triangular Jacobians multiply diagonal-wise."""
        cur = _rows(Z, self.dim)
        out = np.zeros(cur.shape[0])
        for p in self.parts:
            out = out + p.log_det_jacobian(cur)
            cur = p.forward_prefix(cur)
        return out


class Automorphism:
    """Invertible self-map of the latent space given by two callables.

    ``log_abs_det`` is the constant ``log|det M|`` of an affine map
    ``z -> M z + b``; without it the map has no log-det.
    """

    def __init__(self, dim: int, forward, inverse,
                 log_abs_det: float | None = None):
        self.dim = dim
        self._forward = forward
        self._inverse = inverse
        self._log_abs_det = log_abs_det

    def forward(self, Z):
        return np.asarray(self._forward(_rows(Z, self.dim)), dtype=float)

    def inverse(self, X):
        return np.asarray(self._inverse(_rows(X, self.dim)), dtype=float)

    def inverted(self) -> "Automorphism":
        log_abs_det = (None if self._log_abs_det is None
                       else -self._log_abs_det)
        return Automorphism(self.dim, self._inverse, self._forward, log_abs_det)

    def log_det_jacobian(self, Z):
        """Constant ``log|det M|`` of an affine map."""
        if self._log_abs_det is None:
            raise NotImplementedError(
                "transform does not expose a Jacobian determinant")
        return np.full(_rows(Z, self.dim).shape[0], self._log_abs_det)

    @classmethod
    def identity(cls, dim: int) -> "Automorphism":
        eye = np.eye(dim)
        return cls.from_matrix(eye, np.zeros(dim))

    @classmethod
    def from_matrix(cls, matrix, offset=None) -> "Automorphism":
        M = np.atleast_2d(np.asarray(matrix, dtype=float))
        d = M.shape[0]
        if M.shape != (d, d):
            raise DimensionMismatch("matrix must be square")
        b = _offset(offset, d)
        Minv = np.linalg.inv(M)

        def fwd(Z):
            return Z @ M.T + b

        def inv(X):
            return (X - b) @ Minv.T

        return cls(d, fwd, inv, float(np.linalg.slogdet(M)[1]))


def _offset(offset, d: int) -> np.ndarray:
    """``offset`` as a length-``d`` float vector; zeros for ``None``."""
    b = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)
    if b.shape != (d,):
        raise DimensionMismatch(f"offset must have length {d}")
    return b


# ---------------------------------------------------------------------------
# construction and algebra
# ---------------------------------------------------------------------------

def kr_transport(source: Distribution, target: Distribution,
                 method: str = "auto") -> TriangularMap:
    """Triangular transport pushing ``source`` onto ``target``.

    For a Gaussian pair the map is affine and returned in closed form from
    the Cholesky factors; otherwise (or with ``method="cdf_chain"``) the
    conditional-CDF recursion is returned.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimension differ")
    if method not in ("auto", "cdf_chain"):
        raise ValueError(f"unknown method: {method!r}")
    if (method == "auto" and isinstance(source, GaussianDistribution)
            and isinstance(target, GaussianDistribution)):
        L = target.cholesky @ solve_triangular(
            source.cholesky, np.eye(source.dim), lower=True)
        return AffineMap(L, target.mean - L @ source.mean)
    return CdfChainMap(source, target)


def log_det_jacobian(mapping: TriangularMap, Z):
    """Log absolute Jacobian determinant of a TMI map at points ``Z``."""
    return mapping.log_det_jacobian(Z)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def rosenblatt(dist: Distribution, X) -> np.ndarray:
    """Conditional-CDF transform of ``dist`` applied to rows of ``X``.

    Under ``X ~ dist`` every output column is i.i.d. uniform on (0, 1).
    """
    X2 = _rows(X, dist.dim)
    U = np.empty_like(X2)
    for m in range(dist.dim):
        U[:, m] = dist.conditional_cdf(m, X2[:, :m], X2[:, m])
    return U


def _ks_uniform_stat(u: np.ndarray) -> float:
    """Two-sided one-sample KS statistic against U(0, 1)."""
    n = u.shape[0]
    s = np.sort(u)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - s), np.max(s - (grid - 1.0 / n))))


def _ks_critical(level: float, n: int) -> float:
    """Two-sided one-sample KS critical value at ``level``: up to n = 140 the
    union bound on two one-sided Smirnov tails, within 2e-8 relative of the
    exact quantile; beyond, Stephens' (1970) limit, which lies below it."""
    if n <= 140:
        return float(special.smirnovi(n, level / 2))
    rn = np.sqrt(n)
    return float(special.kolmogi(level) / (rn + 0.12 + 0.11 / rn))


@dataclass
class PushforwardReport:
    """Per-coordinate KS statistics and the Bonferroni critical value.

    ``passed`` is true when every statistic lies below ``critical_value``,
    `_ks_critical` at ``per_coordinate_level``, never above the exact KS
    quantile by more than 2e-8 relative.  It holds no p-values.
    """

    statistics: np.ndarray
    critical_value: float
    alpha: float
    per_coordinate_level: float
    n: int
    direction: str
    passed: bool


def pushforward_check(mapping, source: Distribution, target: Distribution,
                      n: int, rng: np.random.Generator,
                      alpha: float = 0.01) -> PushforwardReport:
    """Test whether ``mapping`` pushes ``source`` onto ``target``.

    Mapped samples are reduced by the target's conditional-CDF transform to
    coordinatewise uniforms.  The report holds each coordinate's one-sample
    KS statistic and the critical value at level ``alpha`` with Bonferroni
    correction across coordinates, not p-values: `_ks_critical`, defined
    for any n >= 1 and never looser than the exact KS quantile by more than
    2e-8 relative.  If the target cannot evaluate conditionals (transported
    laws), the equivalent inverse statement - ``mapping^{-1}`` pushes
    ``target`` onto ``source`` - is tested instead against the source's
    conditionals.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimension differ")
    if getattr(target, "has_conditionals", True):
        z = source.sample(rng, n)
        data, ref, direction = mapping.forward(z), target, "forward"
    elif getattr(source, "has_conditionals", True):
        w = target.sample(rng, n)
        data, ref, direction = mapping.inverse(w), source, "inverse"
    else:
        raise ValueError("neither endpoint can evaluate conditional CDFs")
    U = rosenblatt(ref, data)
    d = ref.dim
    level = alpha / d
    stats = np.array([_ks_uniform_stat(U[:, m]) for m in range(d)])
    critical = _ks_critical(level, n)
    return PushforwardReport(
        statistics=stats, critical_value=critical,
        alpha=alpha, per_coordinate_level=level, n=n, direction=direction,
        passed=bool(np.all(stats < critical)))


def jacobian_fd(forward, Z) -> np.ndarray:
    """Central-difference Jacobians at ``(n, d)`` rows, ``(n, d_out, d)``."""
    Z2 = np.asarray(Z, dtype=float)
    d = Z2.shape[-1]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = _STEP
        cols.append((forward(Z2 + e) - forward(Z2 - e)) / (2.0 * _STEP))
    return np.stack(cols, axis=2)


@dataclass
class StructureReport:
    """Maximal absolute Jacobian entries, used for structure detection."""

    max_offdiag: float
    max_upper: float
    entry_max: np.ndarray
    tol: float
    step: float
    passed: bool


def component_wise_check(mapping, probes,
                         tol: float = 1e-4) -> StructureReport:
    """Check that all cross-partials of ``mapping`` vanish on the probes.

    ``passed`` is true when every off-diagonal Jacobian entry stays below
    ``tol`` in absolute value at every probe point, i.e. the map acts on
    each coordinate separately.
    """
    J = jacobian_fd(mapping.forward, probes)
    entry_max = np.max(np.abs(J), axis=0)
    d = entry_max.shape[0]
    off = ~np.eye(d, dtype=bool)
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    max_off = float(entry_max[off].max()) if d > 1 else 0.0
    max_up = float(entry_max[upper].max()) if d > 1 else 0.0
    return StructureReport(max_offdiag=max_off, max_upper=max_up,
                           entry_max=entry_max, tol=tol, step=_STEP,
                           passed=bool(max_off < tol))

