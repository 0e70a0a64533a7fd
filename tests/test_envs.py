"""Environment families, data generation, and fitting helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from idlab import (
    AffineMap,
    EnvironmentData,
    EnvironmentSet,
    ExpFamily,
    GaussianDistribution,
    Laplace1D,
    LinearGenerator,
    MultiViewModel,
    ProductDistribution,
    affine_relation_fit,
    fit_env_affine_generator,
    fit_gaussian_kr,
    fit_marginal_quantile_transport,
    generate_environment_data,
    spanning_check,
    stream,
    validate_strong_vae_config,
    verify_multiview,
)
from idlab.errors import DimensionMismatch, RankDeficient, SingularCovariance
from idlab.experiments import _split_halves

from conftest import probe_grid

MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestGaussianMeanEnvs:
    def test_priors_have_declared_means(self):
        es = EnvironmentSet.gaussian_mean_envs(MEANS)
        assert es.n_envs == 3 and es.latent_dim == 2
        for mu, prior in zip(MEANS, es.priors):
            assert_allclose(prior.mean, mu, atol=0)
            assert_allclose(prior.cov, np.eye(2), atol=0)

    def test_priors_are_the_family_at_each_eta_row(self):
        # each prior is the declared family at its eta row, and a shifted
        # eta matrix is not
        es = EnvironmentSet.gaussian_mean_envs(MEANS)
        z = probe_grid(2)
        for prior, eta in zip(es.priors, es.eta_matrix):
            fam = ExpFamily.gaussian_mean_family(eta)
            assert_allclose(fam.log_density(z), prior.log_density(z), rtol=0, atol=1e-12)
            shifted = ExpFamily.gaussian_mean_family(eta + 0.5)
            assert np.abs(shifted.log_density(z) - prior.log_density(z)).max() > 0.01


def test_spanning_check_ranks():
    assert spanning_check(MEANS).spans
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    rep = spanning_check(collinear)
    assert not rep.spans and rep.contrast_rank == 1


class TestStrongVaeConfigValidation:
    def test_valid_config(self):
        rep = validate_strong_vae_config(EnvironmentSet.gaussian_mean_envs(MEANS))
        assert rep.passed and rep.failing_clause is None

    def test_spanning_clause_fires_first(self):
        bad = EnvironmentSet.gaussian_mean_envs(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        rep = validate_strong_vae_config(bad)
        assert not rep.passed
        assert rep.failing_clause == "spanning"


class TestEnvironmentData:
    def setup_method(self):
        self.es = EnvironmentSet.gaussian_mean_envs(MEANS)
        self.gen = LinearGenerator(np.array([[1.0, 0.0], [0.4, 1.0], [0.0, 0.5]]), np.array([0.0, 0.1, -0.2]))

    def test_shapes_and_env_column(self):
        data = generate_environment_data(self.es, self.gen, 0.0, 50, stream(41, 0))
        assert data.x.shape == (150, 3) and data.z.shape == (150, 2)
        assert sorted(set(data.env)) == [0, 1, 2]
        x1, z1 = data.rows_for(1)
        assert x1.shape == (50, 3) and z1.shape == (50, 2)
        # noiseless: observations sit exactly on the generator image
        assert_allclose(data.x, self.gen.forward(data.z), atol=1e-12)

    def test_rows_for_returns_views(self):
        data = generate_environment_data(self.es, self.gen, 0.0, 50, stream(41, 2))
        for code in range(3):
            x_e, z_e = data.rows_for(code)
            assert np.shares_memory(data.x, x_e) and np.shares_memory(data.z, z_e)

    @pytest.mark.parametrize("env", [[0, 1, 0], [1, 0], [2, 2, 1, 3]])
    def test_non_blocked_env_is_rejected(self, env):
        n = len(env)
        with pytest.raises(ValueError):
            EnvironmentData(x=np.zeros((n, 3)), z=np.zeros((n, 2)), env=np.array(env), n_per_env=n)

    def test_row_count_mismatch_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            EnvironmentData(x=np.zeros((4, 3)), z=np.zeros((3, 2)), env=np.zeros(4, dtype=int), n_per_env=4)


def _masked_halves(data):
    """Reference split: the mask-and-gather version of ``_split_halves``."""
    half = data.n_per_env // 2
    idx_a, idx_b = [], []
    for code in np.unique(data.env):
        where = np.nonzero(data.env == code)[0]
        idx_a.append(where[:half])
        idx_b.append(where[half:2 * half])
    return [(data.x[idx], data.z[idx], data.env[idx])
            for idx in (np.concatenate(idx_a), np.concatenate(idx_b))]


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 12), min_size=1, max_size=5),
       n_per_env=st.integers(0, 16), seed=st.integers(0, 2**16))
@example(counts=[4, 0, 7], n_per_env=6, seed=0)
def test_blocked_rows_match_mask_reference(counts, n_per_env, seed):
    if sum(counts) == 0:
        counts = counts + [1]
    env = np.repeat(np.arange(len(counts)), counts)
    rng = stream(seed, 0)
    data = EnvironmentData(x=rng.normal(size=(env.size, 3)), z=rng.normal(size=(env.size, 2)),
                           env=env, n_per_env=n_per_env)
    # every code, an empty one and one past the last included
    for code in range(len(counts) + 1):
        mask = data.env == code
        x_e, z_e = data.rows_for(code)
        assert_array_equal(x_e, data.x[mask])
        assert_array_equal(z_e, data.z[mask])
    for half, reference in zip(_split_halves(data), _masked_halves(data)):
        assert half.n_per_env == n_per_env // 2
        for got, want in zip((half.x, half.z, half.env), reference):
            assert got.shape == want.shape
            assert_array_equal(got, want)


class TestFitGaussianKr:
    def test_recovers_known_affine_map(self):
        rng = stream(42, 0)
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        truth = AffineMap(np.array([[2.0, 0.0], [0.7, 1.5]]), np.array([1.0, -2.0]))
        x = truth.forward(prior.sample(rng, 60_000))
        fitted = fit_gaussian_kr(x, prior)
        assert_allclose(fitted.matrix, truth.matrix, atol=0.03)
        assert_allclose(fitted.offset, truth.offset, atol=0.03)

    def test_exact_with_given_moments(self):
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        truth = AffineMap(np.array([[2.0, 0.0], [0.7, 1.5]]), np.array([1.0, -2.0]))
        cov = truth.matrix @ truth.matrix.T
        fitted = fit_gaussian_kr(None, prior, mean=truth.offset, cov=cov)
        assert_allclose(fitted.matrix, truth.matrix, atol=1e-12)
        assert_allclose(fitted.offset, truth.offset, atol=1e-12)

    def test_rejects_tiny_samples(self):
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            fit_gaussian_kr(np.zeros((5, 2)), prior)

    def test_rejects_degenerate_samples(self):
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        x = np.tile([1.0, 2.0], (100, 1))
        with pytest.raises(SingularCovariance):
            fit_gaussian_kr(x, prior)


def test_fit_marginal_quantile_transport(rng):
    target = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.5, 2.0)])
    samples = target.sample(rng, 40_000)
    qmap = fit_marginal_quantile_transport(samples, target)
    z = target.sample(stream(43, 1), 2000)
    # transporting fresh target draws should barely move them in the bulk
    bulk = z[np.all(np.abs(z) < 4.0, axis=1)]
    assert float(np.abs(qmap.forward(bulk) - bulk).max()) < 0.15
    assert_allclose(qmap.inverse(qmap.forward(bulk)), bulk, atol=1e-8)


class TestAffineRelationFit:
    def test_exact_recovery(self, rng):
        stats_a = rng.normal(size=(200, 2))
        M = np.array([[0.9, -0.3], [0.2, 1.1]])
        b = np.array([0.5, -0.25])
        rel = affine_relation_fit(stats_a, stats_a @ M + b)
        assert_allclose(rel.matrix, M, atol=1e-10)
        assert_allclose(rel.offset, b, atol=1e-10)
        assert rel.residual < 1e-10
        assert rel.condition_number < 50

    def test_rank_deficient_inputs_rejected(self, rng):
        stats_a = np.tile(rng.normal(size=(1, 2)), (50, 1))
        with pytest.raises(RankDeficient):
            affine_relation_fit(stats_a, stats_a)


def test_fit_env_affine_generator_recovers_truth():
    es = EnvironmentSet.gaussian_mean_envs(MEANS)
    gen = LinearGenerator(np.array([[1.0, 0.2], [0.0, 0.8], [0.3, 0.3]]), np.array([0.1, 0.2, 0.3]))
    data = generate_environment_data(es, gen, 0.0, 30_000, stream(44, 0))
    fitted = fit_env_affine_generator(data, es)
    assert_allclose(fitted.loading, gen.loading, atol=0.02)
    assert_allclose(fitted.offset, gen.offset, atol=0.02)


class TestVerifyMultiview:
    def setup_method(self):
        self.prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        self.tmi = AffineMap(np.array([[1.0, 0.0], [0.4, 1.0]]))
        self.free = LinearGenerator(np.array([[1.3, 0.2], [0.1, 0.8]]))

    def test_identical_views_are_identified(self):
        a = MultiViewModel({"tmi": self.tmi, "free": self.free}, self.prior)
        b = MultiViewModel({"tmi": self.tmi, "free": self.free}, self.prior)
        rep = verify_multiview(a, b, self.prior, 4000, stream(45, 0))
        assert rep.structure["is_identity_ae"]
        assert rep.identity_sup_dev < 1e-6
        assert rep.details["max_disagreement"] < 1e-6

    def test_consistent_rotation_evades_identification(self):
        c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
        R = np.array([[c, -s], [s, c]])
        a = MultiViewModel({"tmi": self.tmi, "free": self.free}, self.prior)
        # both views absorb the same rotation, so no view can rule it out
        rot_tmi = LinearGenerator(self.tmi.matrix @ R.T)
        rot_free = LinearGenerator(self.free.loading @ R.T)
        b = MultiViewModel({"tmi": rot_tmi, "free": rot_free}, self.prior)
        rep = verify_multiview(a, b, self.prior, 4000, stream(45, 1))
        assert not rep.structure["is_identity_ae"]
        assert rep.identity_sup_dev > 0.1
