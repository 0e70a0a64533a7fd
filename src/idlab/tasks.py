"""Downstream tasks and their sensitivity to latent-space indeterminacy.

A task pairs a selection function (pick latent points, possibly from
observations) with an evaluation function (compute something from them).
A task is identifiable when every certified latent transform leaves its
output unchanged: the check below walks a model's equivalence class and
compares outputs.  Two task builders cover the worked cases — generate
from shifted latents, and a rank correlation independence statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UncertifiedTransform
from .indeterminacy import TransportedDistribution, act_on_params
from .measures import interdecile_grid

__all__ = [
    "TaskSpec",
    "TaskReport",
    "sup_point_metric",
    "abs_diff_metric",
    "latent_shift_task",
    "independence_test_task",
    "spearman_abs",
    "task_identifiability_check",
]


def sup_point_metric(out_a, out_b) -> float:
    """Largest per-row Euclidean distance between two ``(n, d)`` arrays."""
    A = np.asarray(out_a, dtype=float)
    B = np.asarray(out_b, dtype=float)
    if A.shape != B.shape:
        raise DimensionMismatch("task outputs have different shapes")
    return float(np.sqrt(np.sum((A - B) ** 2, axis=1)).max())


def abs_diff_metric(out_a, out_b) -> float:
    """Absolute difference of two scalar statistics."""
    return abs(float(out_a) - float(out_b))


@dataclass
class TaskSpec:
    """A task: select latent points, evaluate them, compare outputs.

    ``select(theta, obs)`` returns latent rows; ``evaluate(theta, obs,
    latents)`` is deterministic given its inputs; ``output_metric`` turns
    two outputs into a non-negative distance.
    """

    select: object
    evaluate: object
    output_metric: object
    name: str = "task"


@dataclass
class TaskReport:
    """Per-transform output distances and the resulting verdict."""

    distances: list
    max_distance: float
    identifiable: bool
    tol: float
    task: str
    base_output: object = None
    outputs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# task builders
# ---------------------------------------------------------------------------

def _invert_obs(theta, obs):
    """Selection shared by both tasks: the latents of the observation rows."""
    return theta.generator.inverse(obs)


def _coordinate(name: str, value: int, dim: int) -> int:
    if not 0 <= value < dim:  # e.g. "k must be 0 or 1, got 5"
        raise ValueError(f"{name} must be "
                         f"{' or '.join(map(str, range(dim)))}, got {value}")
    return value


def latent_shift_task(delta: float, k: int, dim: int) -> TaskSpec:
    """Generate from latents shifted by ``delta`` along coordinate ``k``.

    ``k`` is one of ``dim`` latent coordinates.  Selection recovers latents
    through the model's generator; evaluation re-generates after the shift.
    Outputs are point sets compared by the largest per-point distance.
    """
    _coordinate("k", k, dim)

    def evaluate(theta, obs, latents):
        shifted = np.array(latents, dtype=float)
        shifted[:, k] += delta
        return theta.generator.forward(shifted)

    return TaskSpec(select=_invert_obs, evaluate=evaluate,
                    output_metric=sup_point_metric,
                    name=f"latent_shift[delta={delta},k={k}]")


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a``, each tie sharing the mean of its ranks; all
    NaN if any entry is NaN, as in ``scipy.stats.rankdata``."""
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    _, inv, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[inv]


def spearman_abs(x, y) -> float:
    """Absolute Spearman rank correlation with midranks for ties.

    `_midranks` are exact (half-)integers, centered by their exact mean
    (n+1)/2, so reversing either argument's order flips the sign of the
    statistic exactly in floating point and the absolute value is exactly
    invariant under strictly monotone componentwise maps.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionMismatch("columns must have equal length")
    n = x.shape[0]
    cx = _midranks(x) - (n + 1) / 2.0
    cy = _midranks(y) - (n + 1) / 2.0
    den = float(np.sqrt((cx @ cx) * (cy @ cy)))
    if den == 0.0:
        return 0.0
    return abs(float(cx @ cy) / den)


def independence_test_task(pair, n: int, dim: int) -> TaskSpec:
    """Rank-correlation dependence statistic between an observation column
    and a latent column, both of ``dim`` coordinates.

    ``pair`` is (observation coordinate, latent coordinate).  The statistic
    is the absolute Spearman correlation, so the task output is exactly
    invariant under strictly monotone componentwise relabelings of the
    latents.  Requires at least 30 rows to evaluate.
    """
    j, k = (_coordinate("pair entries", int(c), dim) for c in pair)
    if n < 30:
        raise ValueError(f"n must be >= 30 for the independence statistic, "
                         f"got {n}")

    def evaluate(theta, obs, latents):
        X = np.asarray(obs, dtype=float)
        Z = np.asarray(latents, dtype=float)
        if X.shape[0] < 30:
            raise ValueError("independence statistic needs n >= 30 rows")
        return spearman_abs(X[:, j], Z[:, k])

    return TaskSpec(select=_invert_obs, evaluate=evaluate,
                    output_metric=abs_diff_metric,
                    name=f"independence[obs={j},latent={k}]")


# ---------------------------------------------------------------------------
# the identifiability check
# ---------------------------------------------------------------------------

def _prior_grid(prior):
    """7^d probes of ``prior``: its `interdecile_grid`, or for a transported
    law its base's probes pushed through the map."""
    if isinstance(prior, TransportedDistribution):
        return prior.transform.forward(_prior_grid(prior.base))
    try:
        return interdecile_grid(prior, 7)
    except TypeError as exc:
        raise UncertifiedTransform(f"no grid to certify on: {exc}") from exc


def task_identifiability_check(task: TaskSpec, theta, transforms, obs,
                               tol: float) -> TaskReport:
    """Does the task's output survive every certified latent transform?

    A transform A is in the model's class only if A#P = P for the prior P,
    which by change of variables is log p(A^-1 z) - log|det A| = log p(z).
    That is checked, drawing nothing, on the `_prior_grid` of P within
    1e-9 (1 + max|log p|); a failure, a transform without a log-det, or a P
    without a grid raises ``UncertifiedTransform``.  The grid decides a
    Gaussian P under an affine A, as both sides are quadratics, fixed by
    three points per axis; a product of identical symmetric marginals keeps
    the identity under signed permutations by symmetry; other pairs are
    checked on the grid only.  The largest distance between the task's
    outputs on the original and on each twisted model decides the verdict.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    grid = _prior_grid(theta.prior)
    log_p = theta.prior.log_density(grid)
    bound = 1e-9 * (1.0 + float(np.abs(log_p).max()))
    base_out = task.evaluate(theta, obs, task.select(theta, obs))
    distances, outputs = [], []
    for idx, A in enumerate(transforms):
        twisted = act_on_params(A, theta)
        try:
            gap = np.abs(twisted.prior.log_density(grid) - log_p).max()
        except NotImplementedError as exc:
            raise UncertifiedTransform(f"transform {idx}: {exc}") from exc
        if not gap <= bound:
            raise UncertifiedTransform(f"transform {idx} does not preserve "
                                       f"the prior (gap {gap:.3g})")
        out = task.evaluate(twisted, obs, task.select(twisted, obs))
        outputs.append(out)
        distances.append(float(task.output_metric(base_out, out)))
    max_distance = max(distances) if distances else 0.0
    return TaskReport(distances=distances, max_distance=max_distance,
                      identifiable=bool(max_distance < tol), tol=tol,
                      task=task.name, base_output=base_out, outputs=outputs)
