"""Equivalence transforms between model parameterisations and their audits."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from idlab import (
    AffineMap,
    Automorphism,
    GaussianDistribution,
    Laplace1D,
    LinearGenerator,
    ModelParams,
    ProductDistribution,
    TriangularMap,
    act_on_params,
    fit_marginal_quantile_transport,
    fixed_coordinate_check,
    generator_transform,
    identity_deviation,
    indeterminacy_audit,
    kernel_residual,
    pushforward_check,
    spanning_check,
    stream,
    verify_multiview,
)
from idlab.cli import _to_json
from idlab.errors import RangeMismatch
from idlab.experiments import _rotation
from idlab.indeterminacy import TransportedDistribution

from conftest import probe_grid, rng_state

EMBED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
ROT30 = np.array([[np.sqrt(3) / 2, 0.5], [-0.5, np.sqrt(3) / 2]])
#: the two-labs priors: a rotation keeps the round one and moves the other
TWO_LABS_PRIORS = {
    "gaussian": GaussianDistribution([0.0, 0.0], np.eye(2)),
    "laplace": ProductDistribution([Laplace1D(), Laplace1D()]),
}


class TestGeneratorTransform:
    def test_linear_pair_closed_form(self, rng):
        A = np.array([[1.0, 0.3], [0.0, 0.7]])
        gen_a = LinearGenerator(EMBED @ A, np.array([0.1, 0.2, 0.0]))
        gen_b = LinearGenerator(EMBED, np.array([0.0, 0.0, 0.0]))
        auto = generator_transform(gen_a, gen_b)
        z = rng.normal(size=(30, 2))
        # f_b(A z) = f_a(z) pointwise
        assert_allclose(gen_b.forward(auto.forward(z)), gen_a.forward(z), atol=1e-12)
        # an affine automorphism: its log-det is the constant log|det A|
        assert_allclose(auto.log_det_jacobian(z), np.log(0.7), rtol=0, atol=1e-12)

    def test_triangular_pair_composes_maps(self, rng):
        fa = AffineMap(np.array([[1.0, 0.0], [0.4, 1.0]]))
        fb = AffineMap(np.array([[2.0, 0.0], [0.0, 0.5]]), np.array([1.0, 0.0]))
        auto = generator_transform(fa, fb)
        # the composition itself, not a wrapper around it
        assert isinstance(auto, TriangularMap)
        z = rng.normal(size=(30, 2))
        assert_allclose(auto.forward(z), fb.inverse(fa.forward(z)), rtol=0, atol=1e-12)
        assert_allclose(fb.forward(auto.forward(z)), fa.forward(z), atol=1e-10)
        assert_allclose(auto.inverse(auto.forward(z)), z, atol=1e-10)

    def test_fit_artifact_pair_composes_pointwise(self):
        # quantile fits have an inverse but no inverted map
        prior = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.0, 1.0)])
        fits = [fit_marginal_quantile_transport(stream(61, k).normal(size=(300, 2)), prior)
                for k in range(2)]
        auto = generator_transform(*fits)
        # inside the fitted knots; beyond them the fits clamp
        z = probe_grid(2, half_width=2.0)
        assert_allclose(auto.inverse(auto.forward(z)), z, rtol=0, atol=1e-9)
        assert_allclose(fits[1].forward(auto.forward(z)), fits[0].forward(z), rtol=0, atol=1e-9)

    def test_mismatched_ranges_rejected(self):
        gen_a = LinearGenerator(EMBED)  # image is the x1-x2 plane
        gen_b = LinearGenerator(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(RangeMismatch):
            generator_transform(gen_a, gen_b)


def test_identity_deviation_zero_on_identity():
    probes = probe_grid(2)
    sup, rms = identity_deviation(Automorphism.identity(2), probes)
    assert sup == 0.0 and rms == 0.0


def test_identity_deviation_known_shift():
    # entrywise sup norm: the shift (3, 4) deviates by 4 at most
    probes = np.zeros((4, 2))
    auto = Automorphism.from_matrix(np.eye(2), np.array([3.0, 4.0]))
    sup, rms = identity_deviation(auto, probes)
    assert sup == pytest.approx(4.0, abs=1e-12)
    assert rms == pytest.approx(np.sqrt((9.0 + 16.0) / 2.0), abs=1e-12)


@pytest.mark.parametrize("check", [
    lambda spy, probes: identity_deviation(Automorphism(2, spy, spy), probes),
    lambda spy, probes: kernel_residual(spy, Automorphism(2, spy, spy), np.eye(2), probes),
    lambda spy, probes: fixed_coordinate_check(Automorphism(2, spy, spy), [0], probes),
], ids=["identity_deviation", "kernel_residual", "fixed_coordinate_check"])
def test_empty_probes_are_rejected_before_any_map(check):
    calls = []

    def spy(Z):
        calls.append(Z)
        return Z

    with pytest.raises(ValueError, match="probes"):
        check(spy, np.zeros((0, 2)))
    assert calls == []


@pytest.mark.parametrize("coords", [[-1], [2], [5], [0.7], [True], [0, 1.0]], ids=str)
def test_coordinates_outside_the_probe_dimension_are_rejected_before_any_map(coords):
    # a negative index, a float or a bool would pick some other coordinate
    # silently, and one past the end would fail inside numpy
    calls = []

    def spy(Z):
        calls.append(Z)
        return Z

    with pytest.raises(ValueError, match=r"coordinates must be ints in \[0, 2\)"):
        fixed_coordinate_check(Automorphism(2, spy, spy), coords, np.zeros((3, 2)))
    assert calls == []


class TestKernelResidual:
    # contrast rows against an implicit base environment at the origin
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def probes(self):
        return stream(52, 0).normal(size=(200, 3))

    def test_sign_flip_outside_row_space_vanishes(self):
        flip = Automorphism.from_matrix(np.diag([1.0, 1.0, -1.0]))
        assert kernel_residual(lambda z: z, flip, self.M, self.probes()) < 1e-12

    def test_translation_along_first_axis_is_seen(self):
        shift = Automorphism.from_matrix(np.eye(3), np.array([0.1, 0.0, 0.0]))
        res = kernel_residual(lambda z: z, shift, self.M, self.probes())
        assert res >= 0.1 - 1e-12
        assert res == pytest.approx(0.1, abs=1e-12)

    def test_nonlinear_statistic(self):
        # quadratic statistic: the flip z3 -> -z3 no longer hides
        suff = lambda z: np.concatenate([z, z**2], axis=-1)
        M = np.eye(6)
        flip = Automorphism.from_matrix(np.diag([1.0, 1.0, -1.0]))
        assert kernel_residual(suff, flip, M, self.probes()) > 0.1

    def test_one_rank_cutoff_with_spanning_check(self):
        # a 1e-10 contrast is rank-deficient to spanning_check, so the kernel
        # residual must treat its direction as free as well
        M = np.array([[1.0, 0.0, 0.0], [0.0, 1e-10, 0.0]])
        assert spanning_check(np.vstack([np.zeros(3), M])).contrast_rank == 1
        shift = Automorphism.from_matrix(np.eye(3), np.array([0.0, 1.0, 0.0]))
        assert kernel_residual(lambda z: z, shift, M, self.probes()) == 0.0


class TestFixedCoordinateCheck:
    def test_flip_keeps_first_two(self):
        flip = Automorphism.from_matrix(np.diag([1.0, 1.0, -1.0]))
        probes = stream(53, 0).normal(size=(100, 3))
        rep = fixed_coordinate_check(flip, [0, 1], probes)
        assert rep.passed
        assert max(rep.deviations.values()) < 1e-14

    def test_shift_moves_first(self):
        shift = Automorphism.from_matrix(np.eye(3), np.array([0.1, 0.0, 0.0]))
        probes = stream(53, 1).normal(size=(100, 3))
        rep = fixed_coordinate_check(shift, [0, 1], probes)
        assert not rep.passed
        assert rep.deviations[0] == pytest.approx(0.1, abs=1e-14)


class TestPushforwardDistribution:
    """Laws pushed through a latent map, as ``TransportedDistribution``."""

    def test_gaussian_linear_is_exact(self, rng):
        # change of variables through an affine automorphism and back gives
        # the closed-form Gaussian densities; det M = 1.64, so the log-det counts
        dist = GaussianDistribution([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        M = np.array([[0.8, -0.6], [0.6, 1.6]])
        auto = Automorphism.from_matrix(M, np.array([0.5, 0.5]))
        closed = GaussianDistribution(M @ dist.mean + [0.5, 0.5], M @ dist.cov @ M.T)
        pushed = TransportedDistribution(dist, auto)
        x = rng.normal(size=(200, 2))
        assert_allclose(pushed.log_density(x), closed.log_density(x), rtol=0, atol=1e-12)
        back = TransportedDistribution(closed, auto.inverted())
        assert_allclose(back.log_density(x), dist.log_density(x), rtol=0, atol=1e-12)

    def test_triangular_push_has_exact_density(self, laplace_product, rng):
        amap = AffineMap(np.array([[2.0, 0.0], [0.7, 1.5]]), np.array([1.0, -2.0]))
        pushed = TransportedDistribution(laplace_product, amap)
        x = pushed.sample(rng, 500)
        # change of variables against the base density
        z = amap.inverse(x)
        want = laplace_product.log_density(z) - amap.log_det_jacobian(z)
        assert_allclose(pushed.log_density(x), want, atol=1e-10)

    def test_linear_push_of_product_law_has_constant_log_det(self, laplace_product, rng):
        # the task-indep path: a sign flip twists a Laplace product prior
        M = -np.eye(2)
        pushed = act_on_params(Automorphism.from_matrix(M),
                               ModelParams(LinearGenerator(EMBED), laplace_product)).prior
        assert isinstance(pushed, TransportedDistribution)
        x = rng.normal(size=(50, 2))
        want = laplace_product.log_density(-x) - np.log(abs(np.linalg.det(M)))
        assert_allclose(pushed.log_density(x), want, rtol=0, atol=1e-12)

    def test_sampling_matches_base_push(self, rng):
        dist = GaussianDistribution([0.0, 0.0], np.eye(2))
        auto = Automorphism.from_matrix(np.diag([1.0, 3.0]))
        pushed = TransportedDistribution(dist, auto)
        x = pushed.sample(rng, 100_000)
        assert_allclose(np.var(x, axis=0), [1.0, 9.0], rtol=0.05)


class TestActOnParams:
    def test_linear_generator_exact(self):
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        params = ModelParams(LinearGenerator(EMBED), prior)
        auto = Automorphism.from_matrix(ROT90)
        moved = act_on_params(auto, params)
        # the observation law is unchanged: f'(A z) == f(z)
        z = stream(54, 0).normal(size=(50, 2))
        assert_allclose(moved.generator.forward(auto.forward(z)), params.generator.forward(z), atol=1e-12)
        assert_allclose(moved.generator.inverse(params.generator.forward(z)), auto.forward(z), atol=1e-12)
        assert isinstance(moved.prior, TransportedDistribution)

    def test_observation_law_preserved(self, rng):
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        params = ModelParams(LinearGenerator(EMBED), prior)
        moved = act_on_params(Automorphism.from_matrix(ROT90), params)
        x_a = params.generator.forward(params.prior.sample(stream(54, 1), 100_000))
        x_b = moved.generator.forward(moved.prior.sample(stream(54, 2), 100_000))
        assert_allclose(x_a.mean(axis=0), x_b.mean(axis=0), atol=0.02)
        assert_allclose(np.cov(x_a.T), np.cov(x_b.T), atol=0.03)


class TestIndeterminacyAudit:
    def setup_method(self):
        self.prior = GaussianDistribution([0.0, 0.0], np.eye(2))

    def test_same_model_is_identity(self):
        theta = ModelParams(LinearGenerator(EMBED), self.prior)
        rep = indeterminacy_audit(theta, theta, 2000, stream(55, 0))
        assert rep.structure["is_identity_ae"]
        assert rep.pushforward_pass
        assert rep.identity_sup_dev < 1e-10

    def test_gaussian_rotation_pair(self):
        theta_a = ModelParams(LinearGenerator(EMBED), self.prior)
        theta_b = ModelParams(LinearGenerator(EMBED @ ROT90.T), self.prior)
        rep = indeterminacy_audit(theta_a, theta_b, 4000, stream(55, 1))
        # rotation preserves the isotropic prior but is no identity
        assert rep.pushforward_pass
        assert not rep.structure["is_identity_ae"]
        assert rep.identity_sup_dev > 1.0

    def test_laplace_rotation_breaks_pushforward(self):
        prior = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.0, 1.0)])
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        R = np.array([[c, -s], [s, c]])
        theta_a = ModelParams(LinearGenerator(EMBED), prior)
        theta_b = ModelParams(LinearGenerator(EMBED @ R.T), prior)
        rep = indeterminacy_audit(theta_a, theta_b, 50_000, stream(55, 2))
        assert not rep.pushforward_pass

    def test_report_to_dict_is_jsonable(self):
        # the report's dict form is ``asdict``; the CLI's encoder writes it
        theta = ModelParams(LinearGenerator(EMBED), self.prior)
        rep = indeterminacy_audit(theta, theta, 1000, stream(55, 3))
        doc = json.loads(_to_json(asdict(rep)))
        assert doc["pushforward_pass"] is True and doc["n"] == 1000
        assert doc["forward_check"]["statistics"] == rep.forward_check.statistics.tolist()
        assert doc["structure"] == {k: bool(v) for k, v in rep.structure.items()}


def _two_labs_pair(prior):
    return (ModelParams(LinearGenerator(np.eye(2)), prior),
            ModelParams(LinearGenerator(ROT30), prior))


@pytest.mark.parametrize("name", sorted(TWO_LABS_PRIORS))
class TestAuditDraws:
    def test_checks_and_deviation_read_the_forward_draw(self, name):
        # the audit's two KS checks are two pushforward checks made in turn
        # on its stream, and its identity deviation is read off the forward
        # check's prior-a rows
        prior = TWO_LABS_PRIORS[name]
        theta_a, theta_b = _two_labs_pair(prior)
        transform = generator_transform(theta_a.generator, theta_b.generator)
        n = 5000
        rep = indeterminacy_audit(theta_a, theta_b, n, stream(57, 0))
        rng = stream(57, 0)
        want = [pushforward_check(transform, prior, prior, n, rng),
                pushforward_check(transform.inverted(), prior, prior, n, rng)]
        for got, ref in zip([rep.forward_check, rep.inverse_check], want):
            assert got.statistics.tobytes() == ref.statistics.tobytes()
            assert (got.critical_value, got.passed) == (ref.critical_value, ref.passed)
        z = prior.sample(stream(57, 0), n)
        assert (rep.identity_sup_dev, rep.identity_rms_dev) == identity_deviation(transform, z)

    def test_draws_two_samples_per_cell(self, name):
        theta_a, theta_b = _two_labs_pair(TWO_LABS_PRIORS[name])
        n = 3000
        rng, ref = stream(57, 1), stream(57, 1)
        indeterminacy_audit(theta_a, theta_b, n, rng)
        theta_a.prior.sample(ref, n)
        theta_b.prior.sample(ref, n)
        assert rng_state(rng) == rng_state(ref)

    def test_peak_memory_no_higher_than_three_draws(self, name):
        # tracemalloc peaks of this audit when it drew a third n-row sample
        # for the identity deviation, measured with numpy 2.4.6
        three_draw_peak = {"gaussian": 5_603_366, "laplace": 6_504_798}[name]
        theta_a, theta_b = _two_labs_pair(TWO_LABS_PRIORS[name])
        indeterminacy_audit(theta_a, theta_b, 100, stream(57, 2))
        tracemalloc.start()
        try:
            indeterminacy_audit(theta_a, theta_b, 100_000, stream(57, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= three_draw_peak

    def test_peak_memory_within_two_and_three_quarter_blocks(self, name):
        # two-labs' own cell: its 45 degree rotation at its n; the audit
        # holds at most two (n, d) arrays and a sweep's columns at once
        prior = TWO_LABS_PRIORS[name]
        theta_a = ModelParams(LinearGenerator(np.eye(2)), prior)
        theta_b = ModelParams(LinearGenerator(_rotation(-45.0)), prior)
        n = 100_000
        indeterminacy_audit(theta_a, theta_b, 100, stream(57, 4))
        tracemalloc.start()
        try:
            indeterminacy_audit(theta_a, theta_b, n, stream(57, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * n * 2 * 8

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_draw(self, name, n):
        theta_a, theta_b = _two_labs_pair(TWO_LABS_PRIORS[name])
        rng = stream(57, 3)
        state = rng_state(rng)
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            indeterminacy_audit(theta_a, theta_b, n, rng)
        assert rng_state(rng) == state

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, np.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, name, alpha):
        theta_a, theta_b = _two_labs_pair(TWO_LABS_PRIORS[name])
        rng = stream(57, 3)
        state = rng_state(rng)
        with pytest.raises(ValueError, match="alpha must lie in"):
            indeterminacy_audit(theta_a, theta_b, 100, rng, alpha=alpha)
        assert rng_state(rng) == state


def test_transported_distribution_requires_invertible_transform(rng):
    base = GaussianDistribution([0.0], [[1.0]])
    auto = Automorphism(1, lambda z: z**3, lambda x: np.cbrt(x))
    pushed = TransportedDistribution(base, auto)
    x = pushed.sample(rng, 100)
    assert np.isfinite(x).all()
    for method in (pushed.log_density, pushed.rosenblatt, pushed.inverse_rosenblatt):
        with pytest.raises(NotImplementedError):
            method(x)


class TestVerifyMultiview:
    def setup_method(self):
        self.prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        self.tmi = AffineMap(np.array([[1.0, 0.0], [0.4, 1.0]]))
        self.free = LinearGenerator(np.array([[1.3, 0.2], [0.1, 0.8]]))

    def test_identical_views_are_identified(self):
        a = {"tmi": self.tmi, "free": self.free}
        rep = verify_multiview(a, a, self.prior, 4000, stream(45, 0))
        assert rep.structure["is_identity_ae"]
        assert rep.identity_sup_dev < 1e-6
        assert rep.details["max_disagreement"] < 1e-6

    @pytest.mark.parametrize("n, views, message", [
        (0, "both", "n must be >= 1, got 0"),
        (-1, "both", "n must be >= 1, got -1"),
        (100, "none", "models must hold >= 1 view"),
    ])
    def test_rejects_bad_input_before_any_draw(self, n, views, message):
        model = {"tmi": self.tmi, "free": self.free} if views == "both" else {}
        rng = stream(45, 2)
        state = rng_state(rng)
        with pytest.raises(ValueError, match=message):
            verify_multiview(model, model, self.prior, n, rng)
        assert rng_state(rng) == state

    def test_consistent_rotation_evades_identification(self):
        c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
        R = np.array([[c, -s], [s, c]])
        a = {"tmi": self.tmi, "free": self.free}
        # both views absorb the same rotation, so no view can rule it out
        rot_tmi = LinearGenerator(self.tmi.matrix @ R.T)
        rot_free = LinearGenerator(self.free.loading @ R.T)
        b = {"tmi": rot_tmi, "free": rot_free}
        rep = verify_multiview(a, b, self.prior, 4000, stream(45, 1))
        assert not rep.structure["is_identity_ae"]
        assert rep.identity_sup_dev > 0.1
