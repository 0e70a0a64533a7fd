"""Latent maps: triangular monotone transports and general automorphisms.

Every latent map answers one protocol: ``dim``, ``forward``, ``inverse``,
``inverted()`` and ``log_det_jacobian``.

A triangular monotone increasing (TMI) map sends coordinate ``m`` to a value
that depends only on coordinates ``0..m`` and increases strictly in
coordinate ``m``; its ``forward`` maps whole ``(n, d)`` rows, and each has an
exact log-det.  Three representations cover the laboratory's needs:

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

from .errors import DimensionMismatch, NonFiniteDerivative, SingularMatrix
from .measures import (Distribution, GaussianDistribution, _add_offset,
                       _finite, _matmul_rows, _offset, _rows, _solve_lower)

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
    def forward(self, Z):
        """Apply the map to ``(n, d)`` rows; output column ``m`` reads input
        columns ``0..m`` alone."""
        ...

    @abc.abstractmethod
    def inverse(self, X):
        """Solve ``forward(z) = x`` for ``z``, row by row."""
        ...

    @abc.abstractmethod
    def inverted(self) -> "TriangularMap":
        """The inverse map as a TMI object."""
        ...

    @abc.abstractmethod
    def log_det_jacobian(self, Z):
        """Exact sum over coordinates of log dT_m/dz_m, one value per row."""
        ...


class AffineMap(TriangularMap):
    """x -> offset + L x with L lower triangular, positive diagonal."""

    def __init__(self, matrix, offset=None):
        L = _finite(np.atleast_2d(np.asarray(matrix, dtype=float)), "matrix")
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

    def forward(self, Z):
        # the offset goes on, and in inverse comes off a copy, by column,
        # which is cheaper than broadcasting (see measures._add_offset)
        return _add_offset(_matmul_rows(_rows(Z, self.dim), self.matrix.T),
                           self.offset)

    def inverse(self, X):
        X2 = _add_offset(np.array(_rows(X, self.dim)), -self.offset)
        return _solve_lower(self.matrix, X2.T).T

    def inverted(self):
        inv = _solve_lower(self.matrix, np.eye(self.dim))
        return AffineMap(inv, -inv @ self.offset)

    def log_det_jacobian(self, Z):
        return np.full(_rows(Z, self.dim).shape[0],
                       np.sum(np.log(np.diag(self.matrix))))


class CdfChainMap(TriangularMap):
    """Coordinatewise conditional-CDF transport from ``source`` to ``target``.

    Coordinate ``m`` sends ``x_m`` through the source conditional CDF given
    the raw prefix, then through the target conditional quantile given the
    already-mapped prefix: the source's Rosenblatt sweep, then the target's
    inverse sweep.  Gaussian and closed-form product targets give the
    quantile in closed form; others invert their conditional CDF.  The
    log-det is the exact KR density ratio ``log p_src(z) - log p_tgt(T z)``.
    """

    def __init__(self, source: Distribution, target: Distribution):
        if source.dim != target.dim:
            raise DimensionMismatch("source and target dimension differ")
        self.source = source
        self.target = target
        self.dim = source.dim

    def forward(self, Z):
        return self.target.inverse_rosenblatt(self.source.rosenblatt(Z))

    def inverse(self, X):
        return self.inverted().forward(X)

    def log_det_jacobian(self, Z):
        """Exact ``log p_source(z) - log p_target(T z)``."""
        Z2 = _rows(Z, self.dim)
        X = self.forward(Z2)
        # the finiteness check decides, not numpy's error state or warnings
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = self.source.log_density(Z2) - self.target.log_density(X)
        if not np.all(np.isfinite(out)):
            raise NonFiniteDerivative(
                "log-det is not finite: a log-density under- or overflows")
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

    def forward(self, Z):
        out = _rows(Z, self.dim)
        for p in self.parts:
            out = p.forward(out)
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
            cur = p.forward(cur)
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
        M = _finite(np.atleast_2d(np.asarray(matrix, dtype=float)), "matrix")
        d = M.shape[0]
        if M.shape != (d, d):
            raise DimensionMismatch("matrix must be square")
        b = _offset(offset, d)
        try:
            Minv = _finite(np.linalg.inv(M), "inverse")
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("matrix is not invertible") from exc

        def fwd(Z):
            return _add_offset(_matmul_rows(Z, M.T), b)

        def inv(X):
            return _matmul_rows(_add_offset(np.array(X), -b), Minv.T)

        return cls(d, fwd, inv, float(np.linalg.slogdet(M)[1]))


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
        L = target.cholesky @ _solve_lower(source.cholesky, np.eye(source.dim))
        return AffineMap(L, target.mean - L @ source.mean)
    return CdfChainMap(source, target)


def log_det_jacobian(mapping: TriangularMap, Z):
    """Log absolute Jacobian determinant of a TMI map at points ``Z``."""
    return mapping.log_det_jacobian(Z)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _ks_uniform_stats(U: np.ndarray) -> np.ndarray:
    """Two-sided one-sample KS statistic against U(0, 1) of each column.

    Sorts the columns of ``U`` in place and reads every one against a
    single ``(1..n)/n`` grid and its ``1/n`` shift, formed in one buffer.
    """
    n = U.shape[0]
    grid = np.arange(1, n + 1) / n
    buf = np.empty(n)
    stats = np.empty(U.shape[1])
    for m in range(U.shape[1]):
        s = U[:, m]
        s.sort()
        above = np.subtract(grid, s, out=buf).max()
        below = np.subtract(grid, 1.0 / n, out=buf)
        stats[m] = max(above, np.subtract(s, below, out=buf).max())
    return stats


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
    passed: bool


def pushforward_check(mapping, source: Distribution, target: Distribution,
                      n: int, rng: np.random.Generator,
                      alpha: float = 0.01) -> PushforwardReport:
    """Test whether ``mapping`` pushes ``source`` onto ``target``.

    ``n`` source draws are mapped forward and reduced by the target's
    Rosenblatt sweep to coordinatewise uniforms, so the target must have
    one.  The report holds each coordinate's one-sample KS statistic and
    the critical value at level ``alpha`` with Bonferroni correction across
    coordinates, not p-values: `_ks_critical`, defined for any n >= 1 and
    never looser than the exact KS quantile by more than 2e-8 relative.
    ``n < 1``, or an ``alpha`` outside (0, 1) or NaN, is a ``ValueError``,
    raised before anything is drawn.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimension differ")
    _check_draws(n, alpha)
    return _pushforward_report(
        target, mapping.forward(source.sample(rng, n)), alpha)


def _check_draws(n: int, alpha: float) -> None:
    """Reject a draw count below one, or a level ``alpha`` outside (0, 1)
    or NaN, before anything is drawn."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _pushforward_report(target: Distribution, Y,
                        alpha: float) -> PushforwardReport:
    """KS report of the pushed rows ``Y`` against ``target``; the
    Rosenblatt uniforms are sorted in place, so no copy of them is made."""
    U = target.rosenblatt(Y)
    n, d = U.shape
    level = alpha / d
    stats = _ks_uniform_stats(U)
    critical = _ks_critical(level, n)
    return PushforwardReport(
        statistics=stats, critical_value=critical,
        alpha=alpha, per_coordinate_level=level, n=n,
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

