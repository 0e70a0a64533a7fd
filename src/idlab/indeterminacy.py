"""Models and the residual latent transforms between equivalent ones.

A model, ``ModelParams``, pairs a generator with a latent prior.  Two models
inducing the same observation law differ by an invertible self-map of the
latent space.  This module builds that transform from a generator pair, or
one per view of a multi-view model, certifies it distributionally
(pushforward checks), measures distance from the identity and from
constraint classes, and applies transforms to model parameters so
equivalence classes can be walked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, RangeMismatch
from .linear import LinearGenerator, _rank_mask
from .measures import Distribution
from .transport import (Automorphism, ComposedMap, PushforwardReport,
                        TriangularMap, _check_draws, _ks_report,
                        pushforward_check)

__all__ = [
    "ModelParams",
    "TransportedDistribution",
    "IndeterminacyReport",
    "FixedCoordinateReport",
    "generator_transform",
    "identity_deviation",
    "kernel_residual",
    "fixed_coordinate_check",
    "indeterminacy_audit",
    "act_on_params",
    "verify_multiview",
]

#: relative round-trip residual above which two generator ranges differ
_RANGE_TOL = 1e-6
#: sup identity deviation, relative to ``1 + max|z|``, of an identity
_IDENTITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# models and transported laws
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    """A generative model: injective generator plus latent prior.

    The generator exposes ``forward``/``inverse`` (inverse exact on its
    range) and a ``latent_dim``.
    """

    generator: object
    prior: Distribution


class TransportedDistribution(Distribution):
    """Image of a base law under an invertible map, sampled by pushing.

    Its Rosenblatt sweeps raise ``NotImplementedError``, so a pushforward
    check cannot take it as its target.  Densities are available exactly
    when the map's ``log_det_jacobian`` is.
    """

    def __init__(self, base: Distribution, transform):
        self.base = base
        self.transform = transform

    @property
    def dim(self) -> int:
        return self.base.dim

    def log_density(self, z):
        w = self.transform.inverse(z)
        return self.base.log_density(w) - self.transform.log_det_jacobian(w)

    def rosenblatt(self, X):
        raise NotImplementedError("transported laws have no Rosenblatt sweep")

    inverse_rosenblatt = rosenblatt

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
    when the producing operation runs them.  ``structure`` holds the
    producer's identity verdict, ``is_identity_ae``.
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

def _check_probes(probes) -> None:
    """Reject zero probe rows before any map is applied."""
    if len(probes) == 0:
        raise ValueError(
            f"probes must hold >= 1 row, got shape {np.shape(probes)}")


def identity_deviation(transform, probes):
    """(sup, rms) of ``transform(z) - z`` over the ``(n, d)`` probe rows."""
    _check_probes(probes)
    return _sup_rms(transform.forward(probes) - probes)


def _sup_rms(delta):
    """(sup, rms) of the entries of ``delta``, which it overwrites: the
    square of ``|delta|`` is the square of ``delta`` bit for bit."""
    sup = float(np.abs(delta, out=delta).max())
    return sup, float(np.sqrt(np.mean(np.square(delta, out=delta))))


def kernel_residual(suff_stat, transform, contrasts, probes) -> float:
    """Largest row-space component of ``T(z) - T(transform(z))``.

    ``contrasts`` rows span the constraint space; each statistic difference
    is projected onto that row space and the largest projection norm comes
    back, so a near-zero value certifies that the transform only moves
    statistics along the constraint kernel.
    """
    _check_probes(probes)
    diff = suff_stat(probes) - suff_stat(transform.forward(probes))
    M = np.atleast_2d(np.asarray(contrasts, dtype=float))
    if M.shape[1] != diff.shape[1]:
        raise DimensionMismatch(
            "constraint columns must match the statistic dimension")
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    rows = vt[_rank_mask(s)]
    proj = diff @ rows.T @ rows
    return float(np.sqrt(np.sum(proj * proj, axis=1)).max())


def fixed_coordinate_check(transform, coords, probes,
                           tol: float = 1e-8) -> FixedCoordinateReport:
    """Sup deviation from the identity on each of the named coordinates.

    Each coordinate is an int in [0, d) for ``(n, d)`` probes; an empty set
    or any other coordinate is a ``ValueError``, raised before the map is
    applied."""
    _check_probes(probes)
    coords, d = list(coords), np.shape(probes)[1]
    if not coords:
        raise ValueError("coordinate set must be non-empty")
    bad = [c for c in coords if isinstance(c, bool)
           or not isinstance(c, (int, np.integer)) or not 0 <= c < d]
    if bad:
        raise ValueError(f"coordinates must be ints in [0, {d}), got {bad}")
    coords = [int(c) for c in coords]
    dev = np.abs(transform.forward(probes) - probes).max(axis=0)
    devs = {c: float(dev[c]) for c in coords}
    return FixedCoordinateReport(deviations=devs,
                                 passed=bool(max(devs.values()) < tol),
                                 tol=tol)


# ---------------------------------------------------------------------------
# the audits
# ---------------------------------------------------------------------------

def indeterminacy_audit(theta_a, theta_b, n: int, rng: np.random.Generator,
                        alpha: float = 0.01) -> IndeterminacyReport:
    """Full audit of the transform linking two models.

    Builds the generator transform and tests it distributionally in both
    directions: does it push prior-a onto prior-b, and its inverse the
    other way, coordinatewise KS at level ``alpha`` with Bonferroni
    correction.  The forward check's ``n`` prior-a rows also give the
    identity deviations and verdict; the inverse check draws its own ``n``
    prior-b rows after them, so a cell draws ``2n`` rows.  ``n < 1``, or an
    ``alpha`` outside (0, 1) or NaN, is a ``ValueError``, raised before any
    draw.

    At most two ``(n, d)`` arrays are alive at once: the draw ``z`` and its
    image ``y``, then ``y - z`` in ``z``'s buffer, then ``y`` and its
    uniforms; ``y`` goes before the KS sort, and the inverse check frees
    each array in turn as well (see `pushforward_check`).  With a
    sweep's own columns on top, the audit peaks within 2.75 blocks of
    ``n * d`` floats for the Gaussian and Laplace priors at d = 2.
    """
    transform = generator_transform(theta_a.generator, theta_b.generator)
    if theta_a.prior.dim != theta_b.prior.dim:
        raise DimensionMismatch("source and target dimension differ")
    _check_draws(n, alpha)

    z = theta_a.prior.sample(rng, n)
    y = transform.forward(z)
    scale = 1.0 + max(float(z.max()), -float(z.min()))  # NaN kept
    sup, rms = _sup_rms(np.subtract(y, z, out=z))
    del z
    u = theta_b.prior.rosenblatt(y)
    del y
    fwd = _ks_report(u, alpha)
    del u
    inv = pushforward_check(transform.inverted(), theta_b.prior,
                            theta_a.prior, n, rng, alpha=alpha)

    return IndeterminacyReport(
        identity_sup_dev=sup, identity_rms_dev=rms,
        pushforward_pass=bool(fwd.passed and inv.passed),
        forward_check=fwd, inverse_check=inv,
        structure={"is_identity_ae": bool(sup < _IDENTITY_TOL * scale)},
        n=n, details={"alpha": alpha, "identity_tol": _IDENTITY_TOL})


def verify_multiview(views_a: dict, views_b: dict, prior: Distribution,
                     n: int, rng: np.random.Generator, tol: float = 1e-6):
    """Compare the per-view latent transforms of two multi-view models.

    A model is a ``{view: generator}`` dict, every view driven by a single
    shared latent.  Each view contributes the transform linking the two
    models' generators for that view; observationally equivalent models
    force every view onto the same transform, and one view whose transform
    is the identity pins the shared latent.  The report's headline
    deviations belong to the best view; per-view deviations and the max
    pairwise disagreement ride along in the details.  Models without a
    view, or ``n < 1``, are a ``ValueError``, raised before any draw.
    """
    if set(views_a) != set(views_b):
        raise DimensionMismatch("models must share their view labels")
    if not views_a:
        raise ValueError("models must hold >= 1 view")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = prior.sample(rng, n)
    values, sups, rmss = {}, {}, {}
    for label in sorted(views_a):
        transform = generator_transform(views_a[label], views_b[label],
                                        probes=z)
        values[label] = transform.forward(z)
        sups[label], rmss[label] = _sup_rms(values[label] - z)
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
    return ModelParams(
        generator=_TransformedGenerator(params.generator, transform),
        prior=TransportedDistribution(params.prior, transform))

