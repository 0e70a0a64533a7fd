"""Residual latent transforms between observationally equivalent models.

Two models inducing the same observation law differ by an invertible
self-map of the latent space.  This module constructs that transform from a
generator pair, certifies candidates distributionally (two-direction
pushforward checks) and structurally (Jacobian probes), measures distance
from the identity and from constraint classes (statistic kernels, pinned
coordinates), and applies transforms to model parameters so equivalence
classes can be walked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, RangeMismatch
from .linear import _RANK_REL_TOL, LinearGenerator
from .measures import Distribution
from .transport import (Automorphism, ComposedMap, PushforwardReport,
                        TriangularMap, component_wise_check, pushforward_check)

__all__ = [
    "TransportedDistribution",
    "IndeterminacyReport",
    "FixedCoordinateReport",
    "generator_transform",
    "identity_deviation",
    "kernel_residual",
    "fixed_coordinate_check",
    "indeterminacy_audit",
    "act_on_params",
]

#: relative round-trip residual above which two generator ranges differ
_RANGE_TOL = 1e-6
#: sup identity deviation, relative to ``1 + max|z|``, of an identity
_IDENTITY_TOL = 1e-6
#: affine-fit residual and cross-partial size below which a flag is set
_STRUCTURE_TOL = 1e-4


# ---------------------------------------------------------------------------
# transported laws
# ---------------------------------------------------------------------------

class TransportedDistribution(Distribution):
    """Image of a base law under an invertible map, sampled by pushing.

    Conditional CDFs are not exposed (``has_conditionals`` is false), which
    routes goodness-of-fit checks through the inverse direction.  Densities
    are available exactly when the map's ``log_det_jacobian`` is.
    """

    has_conditionals = False

    def __init__(self, base: Distribution, transform):
        self.base = base
        self.transform = transform

    @property
    def dim(self) -> int:
        return self.base.dim

    def log_density(self, z):
        w = self.transform.inverse(z)
        return self.base.log_density(w) - self.transform.log_det_jacobian(w)

    def conditional_cdf(self, m, prefix, values):
        raise NotImplementedError("transported laws do not expose conditionals")

    def conditional_quantile(self, m, prefix, p):
        raise NotImplementedError("transported laws do not expose conditionals")

    def sample(self, rng, n):
        return self.transform.forward(self.base.sample(rng, n))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class IndeterminacyReport:
    """Verdicts about one candidate latent transform.

    Identity deviations are always present; the distributional check, the
    statistic-kernel residual and the pinned-coordinate deviations appear
    when the producing operation runs them.  ``structure`` holds cumulative
    flags: an identity is also componentwise, triangular and affine.
    """

    identity_sup_dev: float
    identity_rms_dev: float
    pushforward_pass: bool | None = None
    forward_check: PushforwardReport | None = None
    inverse_check: PushforwardReport | None = None
    kernel_residual: float | None = None
    fixed_coord_dev: dict | None = None
    structure: dict = field(default_factory=dict)
    n: int = 0
    details: dict = field(default_factory=dict)


@dataclass
class FixedCoordinateReport:
    """Per-coordinate sup deviation from the identity on a coordinate set."""

    deviations: dict
    passed: bool
    tol: float


# ---------------------------------------------------------------------------
# constructing the latent transform from a generator pair
# ---------------------------------------------------------------------------

def _range_guard(gen_a, gen_b, probes):
    """Raise unless gen_a's outputs survive a round trip through gen_b."""
    y = gen_a.forward(probes)
    scale = 1.0 + float(np.abs(y).max())
    back = gen_b.forward(gen_b.inverse(y))
    residual = float(np.abs(back - y).max())
    if residual > _RANGE_TOL * scale:
        raise RangeMismatch(
            f"generator ranges differ: round-trip residual {residual:.3e} "
            f"exceeds {_RANGE_TOL:.1e} at scale {scale:.3e}")


def generator_transform(gen_a, gen_b, probes=None):
    """Latent transform linking two generators of the same observations.

    The result sends model-a latents to model-b latents: forward is
    ``gen_b``'s left inverse after ``gen_a``, inverse is the song played
    backwards.  Linear-generator pairs come back as an affine
    ``Automorphism``; triangular-map pairs come back as the ``ComposedMap``
    of ``gen_a`` and ``gen_b.inverted()``, unless ``gen_b`` has no inverted
    map, in which case they compose pointwise like any other pair.  Probes
    (default: origin plus unit directions) certify that ``gen_a``'s outputs
    lie on ``gen_b``'s range, else ``RangeMismatch``.
    """
    dz_a = getattr(gen_a, "latent_dim", None)
    dz_b = getattr(gen_b, "latent_dim", None)
    if dz_a is None or dz_b is None or dz_a != dz_b:
        raise DimensionMismatch("generators must share a latent dimension")
    dz = int(dz_a)
    if probes is None:
        probes = np.vstack([np.zeros(dz), np.eye(dz), -np.eye(dz)])

    if isinstance(gen_a, LinearGenerator) and isinstance(gen_b, LinearGenerator):
        if gen_a.obs_dim != gen_b.obs_dim:
            raise DimensionMismatch("generators must share an observation space")
        _range_guard(gen_a, gen_b, probes)
        M = gen_b._pinv @ gen_a.loading
        c = gen_b._pinv @ (gen_a.offset - gen_b.offset)
        return Automorphism.from_matrix(M, c)

    if isinstance(gen_a, TriangularMap) and isinstance(gen_b, TriangularMap):
        try:
            return ComposedMap([gen_a, gen_b.inverted()])
        except NotImplementedError:
            pass  # a fit artifact that inverts only pointwise

    _range_guard(gen_a, gen_b, probes)

    return Automorphism(dz, lambda Z: gen_b.inverse(gen_a.forward(Z)),
                        lambda W: gen_a.inverse(gen_b.forward(W)))


# ---------------------------------------------------------------------------
# identity and constraint predicates
# ---------------------------------------------------------------------------

def identity_deviation(transform, probes):
    """(sup, rms) of ``transform(z) - z`` over the ``(n, d)`` probe rows."""
    delta = transform.forward(probes) - probes
    return float(np.abs(delta).max()), float(np.sqrt(np.mean(delta * delta)))


def kernel_residual(suff_stat, transform, contrasts, probes) -> float:
    """Largest row-space component of ``T(z) - T(transform(z))``.

    ``contrasts`` rows span the constraint space; each statistic difference
    is projected onto that row space and the largest projection norm comes
    back, so a near-zero value certifies that the transform only moves
    statistics along the constraint kernel.
    """
    diff = suff_stat(probes) - suff_stat(transform.forward(probes))
    M = np.atleast_2d(np.asarray(contrasts, dtype=float))
    if M.shape[1] != diff.shape[1]:
        raise DimensionMismatch(
            "constraint columns must match the statistic dimension")
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    rows = vt[s > _RANK_REL_TOL * s[0]]
    proj = diff @ rows.T @ rows
    return float(np.sqrt(np.sum(proj * proj, axis=1)).max())


def fixed_coordinate_check(transform, coords, probes,
                           tol: float = 1e-8) -> FixedCoordinateReport:
    """Sup deviation from the identity on each of the named coordinates."""
    coords = [int(c) for c in coords]
    if not coords:
        raise ValueError("coordinate set must be non-empty")
    dev = np.abs(transform.forward(probes) - probes).max(axis=0)
    devs = {c: float(dev[c]) for c in coords}
    return FixedCoordinateReport(deviations=devs,
                                 passed=bool(max(devs.values()) < tol),
                                 tol=tol)


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------

def _affine_fit_residual(transform, probes) -> float:
    """Sup misfit of the best affine approximation on the probes."""
    vals = transform.forward(probes)
    X = np.column_stack([probes, np.ones(probes.shape[0])])
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    return float(np.abs(X @ coef - vals).max())


def structure_flags(transform, probes, is_identity: bool) -> dict:
    """Classify a transform on probe points: affine, triangular, componentwise.

    ``is_identity`` is the caller's identity verdict.  Checks run
    cheapest-first — affine fit residual, then cross-partials above the
    diagonal, then all off-diagonal cross-partials — and the flags are
    cumulative: identity implies componentwise and affine, and
    componentwise implies triangular.
    """
    is_affine = (is_identity
                 or _affine_fit_residual(transform, probes) < _STRUCTURE_TOL)

    cw = component_wise_check(transform, probes, tol=_STRUCTURE_TOL)
    is_component_wise = is_identity or cw.max_offdiag < _STRUCTURE_TOL
    is_triangular = (is_component_wise
                     or isinstance(transform, TriangularMap)
                     or cw.max_upper < _STRUCTURE_TOL)
    return {"is_identity_ae": bool(is_identity),
            "is_component_wise": bool(is_component_wise),
            "is_triangular": bool(is_triangular),
            "is_affine": bool(is_affine)}


def indeterminacy_audit(theta_a, theta_b, n: int, rng: np.random.Generator,
                        alpha: float = 0.01) -> IndeterminacyReport:
    """Full audit of the transform linking two models.

    Builds the generator transform, tests it distributionally in both
    directions (does it push prior-a onto prior-b, and its inverse the
    other way, coordinatewise KS at level ``alpha`` with Bonferroni
    correction), measures identity deviations on prior-a samples, and
    classifies the transform's structure from finite-difference Jacobians.
    """
    transform = generator_transform(theta_a.generator, theta_b.generator)
    fwd = pushforward_check(transform, theta_a.prior, theta_b.prior, n, rng,
                            alpha=alpha)
    inv = pushforward_check(transform.inverted(), theta_b.prior,
                            theta_a.prior, n, rng, alpha=alpha)

    z = theta_a.prior.sample(rng, n)
    sup, rms = identity_deviation(transform, z)
    is_identity = sup < _IDENTITY_TOL * (1.0 + float(np.abs(z).max()))
    flags = structure_flags(transform, z[:64], is_identity)

    return IndeterminacyReport(
        identity_sup_dev=sup, identity_rms_dev=rms,
        pushforward_pass=bool(fwd.passed and inv.passed),
        forward_check=fwd, inverse_check=inv,
        structure=flags, n=n,
        details={"alpha": alpha, "identity_tol": _IDENTITY_TOL,
                 "structure_tol": _STRUCTURE_TOL})


# ---------------------------------------------------------------------------
# group action on model parameters
# ---------------------------------------------------------------------------

class _TransformedGenerator:
    """Generator precomposed with the inverse of a latent transform."""

    def __init__(self, generator, transform):
        self.generator = generator
        self.transform = transform
        self.latent_dim = getattr(generator, "latent_dim", transform.dim)

    def forward(self, Z):
        return self.generator.forward(self.transform.inverse(Z))

    def inverse(self, X):
        return self.transform.forward(self.generator.inverse(X))


def act_on_params(transform, params):
    """Twist a model by a latent transform without changing what it emits.

    The new generator undoes the transform before generating, and the new
    prior is the transform's pushforward of the old one, so the observation
    law is untouched.  The generator is a lazy composition and the prior a
    ``TransportedDistribution``, whatever the transform.
    """
    from .envs import ModelParams
    name = f"{params.name}-equiv" if getattr(params, "name", "") else "equiv"
    return ModelParams(
        generator=_TransformedGenerator(params.generator, transform),
        prior=TransportedDistribution(params.prior, transform), name=name)
