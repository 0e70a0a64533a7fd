"""Environment families, data generation, and fitting helpers."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    Normal1D,
    ProductDistribution,
    affine_relation_fit,
    fit_env_affine_generator,
    fit_gaussian_kr,
    fit_marginal_quantile_transport,
    generate_environment_data,
    spanning_check,
    stream,
    validate_strong_vae_config,
)
from idlab.errors import DimensionMismatch, RankDeficient, SingularCovariance
from idlab.experiments import (EXPERIMENTS, _equilateral_means, _exact_block_means,
                               _exact_moments, _rotation)

from conftest import probe_grid

MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestGaussianMeanEnvs:
    def test_priors_have_declared_means(self):
        es = EnvironmentSet.gaussian_mean_envs(MEANS)
        assert es.n_envs == 3 and es.latent_dim == 2
        assert_array_equal(es.eta_matrix, MEANS)
        # the mean fits read the very eta array
        assert es.means is es.eta_matrix

    def test_priors_are_the_family_at_each_eta_row(self):
        # environment e's law is N(mean_e, I), and a shifted eta row's is not
        es = EnvironmentSet.gaussian_mean_envs(MEANS)
        z = probe_grid(2)
        for mu in MEANS:
            law = es.family.at(mu)
            ref = GaussianDistribution(mu, np.eye(2))
            assert_allclose(law.log_density(z), ref.log_density(z), rtol=0, atol=1e-12)
            shifted = es.family.at(mu + 0.5)
            assert np.abs(shifted.log_density(z) - ref.log_density(z)).max() > 0.01

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eta_in_a_later_row_is_rejected(self, bad):
        means = MEANS.copy()
        means[1, 0] = bad
        with pytest.raises(ValueError, match="eta must be finite"):
            EnvironmentSet.gaussian_mean_envs(means)

    def test_empty_set_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="at least one environment"):
            EnvironmentSet.gaussian_mean_envs(np.zeros((0, 2)))
        with pytest.raises(DimensionMismatch, match="at least one environment"):
            EnvironmentSet(ExpFamily.gaussian_mean_family([0.0, 0.0]), np.zeros((0, 2)))

    def test_eta_rows_must_match_the_family(self):
        with pytest.raises(DimensionMismatch):
            EnvironmentSet(ExpFamily.gaussian_mean_family([0.0, 0.0]), np.zeros((3, 3)))

    def test_means_need_mean_parametrized_members(self):
        # N(2 eta, 1) has statistic 2x, so its eta rows are half its means
        fam = ExpFamily(lambda x: -0.5 * x * x - 0.5 * np.log(2 * np.pi), lambda x: 2.0 * x,
                        lambda e: 2.0 * e * e, [0.0, 0.0], lambda e: Normal1D(2.0 * e))
        with pytest.raises(TypeError, match="Normal1D"):
            EnvironmentSet(fam, MEANS).means


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

    def test_shapes_and_generator_range(self):
        data = generate_environment_data(self.es, self.gen, 50, stream(41, 0))
        assert data.x.shape == (3, 50, 3) and data.n_per_env == 50
        # noiseless: observations sit exactly on the generator's range
        x = data.x.reshape(-1, 3)
        assert_allclose(self.gen.forward(self.gen.inverse(x)), x, rtol=0, atol=1e-12)
        # block e holds environment e's draws, taken in eta-row order from
        # one stream
        rng = stream(41, 0)
        for block, eta in zip(data.x, self.es.eta_matrix):
            assert_array_equal(block, self.gen.forward(self.es.family.at(eta).sample(rng, 50)))


def test_generation_and_split_peak_memory():
    # ivae-affine's environments at its default sizes: the block means add
    # nothing to the blocks
    defaults = EXPERIMENTS["ivae-affine"].defaults
    envset = EnvironmentSet.gaussian_mean_envs(_equilateral_means(defaults["radius"]))
    generator = LinearGenerator(_rotation(defaults["angle_deg"]), defaults["offset"])
    tracemalloc.start()
    try:
        data = generate_environment_data(envset, generator, defaults["n_per_env"], stream(46))
        means = data.block_means
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.x.shape == (3, 100_000, 2) and means.shape == (3, 2)
    assert peak <= 2.5 * data.x.nbytes


def test_exact_law_block_means_match_generated_rows():
    # strong-vae's fits read block means drawn from their exact law; over many
    # seeds they have the first two moments of the means of generated rows
    h, seeds = 40, 4000
    envset = EnvironmentSet.gaussian_mean_envs(MEANS)
    gen = LinearGenerator(np.array([[1.0, 0.2], [0.0, 0.8], [0.3, 0.3]]), np.array([0.1, 0.2, 0.3]))
    generated = np.array([generate_environment_data(envset, gen, h, stream(s, 0)).block_means
                          for s in range(seeds)])
    exact = np.array([_exact_block_means(envset, gen, h, stream(s, 1)) for s in range(seeds)])
    assert generated.shape == exact.shape == (seeds, 3, 3)
    cov = gen.loading @ gen.loading.T / h
    # standard errors of a mean and of a covariance entry over the seeds
    se_mean = np.sqrt(np.diag(cov) / seeds)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / seeds)
    gap = np.abs(generated.mean(axis=0) - exact.mean(axis=0))
    assert np.all(gap < 4 * np.sqrt(2) * se_mean)
    for draws in (generated, exact):
        assert np.all(np.abs(draws.mean(axis=0) - gen.forward(MEANS)) < 4 * se_mean)
        for e in range(3):
            assert np.all(np.abs(np.cov(draws[:, e], rowvar=False) - cov) < 5 * se_cov)


def test_exact_law_moments_match_generated_rows():
    # two-labs' half fits read a mean and a ddof-1 covariance drawn from their
    # exact law; over many seeds those five entries have the first two
    # moments of the moments of generated rows: mean ~ N(b, S / n) and
    # (n - 1) cov ~ Wishart(S, n - 1), independent, where S = M M^T
    n, seeds = 40, 4000
    model = AffineMap([[1.0, 0.0], [0.6, 1.3]], [0.3, -0.2])
    prior = GaussianDistribution(np.zeros(2), np.eye(2))

    def entries(mean, cov):
        return np.array([mean[0], mean[1], cov[0, 0], cov[0, 1], cov[1, 1]])

    generated = []
    for s in range(seeds):
        x = model.forward(prior.sample(stream(s, 0), n))
        generated.append(entries(x.mean(axis=0), np.cov(x, rowvar=False)))
    exact = [entries(*_exact_moments(model, n, stream(s, 1))) for s in range(seeds)]

    S = model.matrix @ model.matrix.T
    want_mean = entries(model.offset, S)
    want_cov = np.zeros((5, 5))
    want_cov[:2, :2] = S / n
    pairs = [(0, 0), (0, 1), (1, 1)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, m) in enumerate(pairs):
            want_cov[2 + a, 2 + b] = (S[i, k] * S[j, m] + S[i, m] * S[j, k]) / (n - 1)
    # standard errors of a mean and of a covariance entry over the seeds
    var = np.diag(want_cov)
    se_mean = np.sqrt(var / seeds)
    se_cov = np.sqrt((np.outer(var, var) + want_cov ** 2) / seeds)
    for draws in (np.array(generated), np.array(exact)):
        assert np.all(np.abs(draws.mean(axis=0) - want_mean) < 4 * se_mean)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - want_cov) < 5 * se_cov)


class TestFitGaussianKr:
    def test_exact_with_given_moments(self):
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        truth = AffineMap(np.array([[2.0, 0.0], [0.7, 1.5]]), np.array([1.0, -2.0]))
        cov = truth.matrix @ truth.matrix.T
        fitted = fit_gaussian_kr(prior, truth.offset, cov)
        assert_allclose(fitted.matrix, truth.matrix, atol=1e-12)
        assert_allclose(fitted.offset, truth.offset, atol=1e-12)

    def test_rejects_non_finite_moments(self):
        # the moments of samples that overflow are infinite or NaN
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        with pytest.raises(SingularCovariance, match="not finite"):
            fit_gaussian_kr(prior, [0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularCovariance, match="not finite"):
            fit_gaussian_kr(prior, [np.nan, 0.0], np.eye(2))

    def test_rejects_degenerate_samples(self):
        # the moments of samples whose rows all coincide
        prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        with pytest.raises(SingularCovariance, match="not positive definite"):
            fit_gaussian_kr(prior, [1.0, 2.0], np.zeros((2, 2)))


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
    data = generate_environment_data(es, gen, 30_000, stream(44, 0))
    fitted = fit_env_affine_generator(data.block_means, es)
    assert_allclose(fitted.loading, gen.loading, atol=0.02)
    assert_allclose(fitted.offset, gen.offset, atol=0.02)
    # exact means pin the generator exactly
    exact = fit_env_affine_generator(gen.forward(MEANS), es)
    assert_allclose(exact.loading, gen.loading, atol=1e-12)
    assert_allclose(exact.offset, gen.offset, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(obs_dim=st.integers(1, 4), n_envs=st.integers(2, 5), n=st.integers(1, 4001),
       seed=st.integers(0, 2**32 - 1))
def test_fit_env_means_equal_per_block_means(obs_dim, n_envs, n, seed):
    # ivae-affine fits the block means of its data, taken in one einsum; that
    # adds each block's rows in the order .mean(axis=0) does, so the bits
    # agree from obs_dim 2 on; at obs_dim 1 .mean sums pairwise, and each
    # mean lies within n * eps * max|x| of the exact one
    rng = stream(seed)
    envset = EnvironmentSet.gaussian_mean_envs(rng.normal(size=(n_envs, min(obs_dim, n_envs - 1))))
    data = EnvironmentData(rng.normal(size=(n_envs, n, obs_dim)))
    expected = np.array([block.mean(axis=0) for block in data.x])
    if obs_dim >= 2:
        assert np.array_equal(data.block_means, expected)
    else:
        bound = 2 * n * np.finfo(float).eps * np.abs(data.x).max()
        assert_allclose(data.block_means, expected, rtol=0, atol=bound)
    # the fit reads the mean matrix as given
    seen = []
    lstsq = np.linalg.lstsq
    with mock.patch("numpy.linalg.lstsq", lambda a, b, rcond: seen.append(b) or lstsq(a, b, rcond=rcond)):
        fit_env_affine_generator(data.block_means, envset)
    assert np.array_equal(seen[0], data.block_means)
