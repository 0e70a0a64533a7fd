"""Linear generators and the linear-model identifiability toolkit.

Covers the factor-analysis side of the laboratory: building a rotation
counterexample that leaves two-environment observations unchanged, showing
that enough spanning environments force the loading to be unique, and
checking the permutation-scaling structure that linear ICA allows.  The
latent transform connecting two linear generators is
``indeterminacy.generator_transform``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateMeans, DimensionMismatch, RankDeficient,
                     SingularMatrix)
from .measures import _add_offset, _finite, _matmul_rows, _offset, _rows

__all__ = [
    "LinearGenerator",
    "SpanReport",
    "UniquenessReport",
    "ComonReport",
    "rotation_counterexample",
    "spanning_check",
    "solve_multi_env_linear",
    "comon_structure_check",
]

_RANK_REL_TOL = 1e-8


def _rank_mask(s: np.ndarray) -> np.ndarray:
    """Which singular values ``s``, largest first, count toward the rank;
    none of an empty or all-zero spectrum do."""
    return s > _RANK_REL_TOL * s[0] if s.size else s > 0


def _svd_rank(M: np.ndarray) -> int:
    return int(np.count_nonzero(
        _rank_mask(np.linalg.svd(M, compute_uv=False))))


class LinearGenerator:
    """Injective affine map z -> offset + F z from latents to observations."""

    def __init__(self, loading, offset=None):
        self.loading = np.atleast_2d(np.asarray(loading, dtype=float))
        dx, dz = self.loading.shape
        if self.loading.size == 0:
            raise DimensionMismatch(
                f"loading must have entries, got shape {self.loading.shape}")
        _finite(self.loading, "loading")
        self.offset = _offset(offset, dx)
        # one thresholded SVD gives the rank and the left inverse on the range
        u, s, vt = np.linalg.svd(self.loading, full_matrices=False)
        keep = _rank_mask(s)
        if np.count_nonzero(keep) < dz:
            raise RankDeficient("loading must have full column rank")
        self._pinv = (vt[keep].T / s[keep]) @ u[:, keep].T

    @property
    def obs_dim(self) -> int:
        return self.loading.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.loading.shape[1]

    def forward(self, Z):
        """``offset + F z`` per row; the offset goes on by column."""
        return _add_offset(
            _matmul_rows(_rows(Z, self.latent_dim), self.loading.T),
            self.offset)

    def inverse(self, X):
        """Left inverse, exact on offset + range(loading), by column."""
        centred = _add_offset(np.array(_rows(X, self.obs_dim)), -self.offset)
        return _matmul_rows(centred, self._pinv.T)


def rotation_counterexample(mu1, mu2, generator: LinearGenerator):
    """Second generator observationally equivalent on two environments.

    Returns ``(other, R)`` where ``R`` is the reflection fixing the mean
    difference ``v = mu2 - mu1`` and flipping its orthogonal complement, and
    ``other`` has loading ``F R`` with the offset adjusted so both
    environment observation laws match exactly.  Latent dimension must be 2.
    """
    mu1 = np.asarray(mu1, dtype=float).reshape(-1)
    mu2 = np.asarray(mu2, dtype=float).reshape(-1)
    if generator.latent_dim != 2 or mu1.shape != (2,) or mu2.shape != (2,):
        raise DimensionMismatch("the construction lives in latent dimension 2")
    v = mu2 - mu1
    if np.hypot(*v) < 1e-12:
        raise DegenerateMeans("environment means must be distinct")
    v = v / np.abs(v).max()  # R does not depend on v's scale; v @ v is finite
    norm2 = float(v @ v)
    x = np.array([-v[1], v[0]])  # v rotated by 90 degrees, same length
    B = np.column_stack([v, x])
    R = (B @ np.diag([1.0, -1.0]) @ B.T) / norm2
    F2 = generator.loading @ R
    alpha2 = generator.offset + generator.loading @ mu1 - F2 @ mu1
    return LinearGenerator(F2, alpha2), R


@dataclass
class SpanReport:
    spans: bool
    contrast_rank: int


def spanning_check(etas) -> SpanReport:
    """Do the contrasts ``etas[e] - etas[0]`` span the parameter space?"""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    rank = _svd_rank(etas[1:] - etas[0])
    return SpanReport(spans=bool(rank == etas.shape[1]), contrast_rank=rank)


@dataclass
class UniquenessReport:
    unique: bool
    contrast_rank: int
    latent_dim: int
    deviation: float | None


def solve_multi_env_linear(generator: LinearGenerator,
                           env_means) -> UniquenessReport:
    """Solve F' C = F C for F' given the contrast columns C.

    Column ``e`` of C is ``env_means[e + 1] - env_means[0]``.  The loading is
    unique exactly when the contrasts span the latent space; in that case
    the least-squares recovery is reported with its deviation from the true
    loading.
    """
    env_means = np.atleast_2d(np.asarray(env_means, dtype=float))
    if env_means.shape[0] < 2:
        raise DimensionMismatch("need at least two environments")
    if env_means.shape[1] != generator.latent_dim:
        raise DimensionMismatch("means and generator latent dimension differ")
    C = (env_means[1:] - env_means[0]).T         # (dz, E-1) contrast columns
    rank = spanning_check(env_means).contrast_rank
    unique = rank == generator.latent_dim
    deviation = None
    if unique:
        target = (generator.loading @ C).T       # (E-1, dx)
        sol, *_ = np.linalg.lstsq(C.T, target, rcond=None)
        deviation = float(np.linalg.norm(sol.T - generator.loading))
    return UniquenessReport(unique=unique, contrast_rank=rank,
                            latent_dim=generator.latent_dim,
                            deviation=deviation)


@dataclass
class ComonReport:
    component_wise: bool
    condition_number: float
    column_counts: np.ndarray
    tol: float


def comon_structure_check(matrix, tol: float = 1e-6) -> ComonReport:
    """Does the matrix act as a permutation composed with scalings?

    True exactly when every column carries a single entry above ``tol`` in
    absolute value, the structure a linear mixing of independent non-Gaussian
    coordinates leaves free.
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("matrix must be square")
    cond = float(np.linalg.cond(_finite(A, "matrix")))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMatrix(f"matrix is numerically singular (cond={cond:.3e})")
    counts = np.sum(np.abs(A) > tol, axis=0)
    return ComonReport(component_wise=bool(np.all(counts == 1)),
                       condition_number=cond, column_counts=counts, tol=tol)
