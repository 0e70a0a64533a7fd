"""Tests for the univariate laws and joint distributions."""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from idlab import (
    Exponential1D,
    ExpFamily,
    GaussianDistribution,
    GaussianMixture1D,
    Laplace1D,
    Logistic1D,
    Normal1D,
    ProductDistribution,
    distribution_from_spec,
    interdecile_box,
    stream,
)
from idlab.measures import _cumulative_simpson

from conftest import bisect_quantile, gaussian_laws, gaussian_mean_families, gaussian_mixtures, product_laws

GRID = np.linspace(-6.0, 6.0, 301)
PROBS = np.linspace(0.001, 0.999, 97)


@pytest.mark.parametrize(
    "law",
    [
        Normal1D(0.0, 1.0),
        Normal1D(-2.0, 0.4),
        Laplace1D(0.3, 1.3),
        Logistic1D(-0.2, 0.8),
        Exponential1D(0.7),
        GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5]),
    ],
)
def test_quantile_inverts_cdf(law):
    x = law.ppf(PROBS)
    assert_allclose(law.cdf(x), PROBS, atol=1e-9)


@pytest.mark.parametrize(
    "law",
    [Normal1D(1.0, 2.0), Laplace1D(0.0, 1.0), Logistic1D(0.4, 1.1), Exponential1D(1.5)],
)
def test_cdf_matches_scipy(law):
    if law.kind == "exponential":
        ref = scipy.stats.expon(scale=1.0 / law.rate)
    else:
        name = {"normal": "norm", "laplace": "laplace", "logistic": "logistic"}[law.kind]
        ref = getattr(scipy.stats, name)(loc=law.loc, scale=law.scale)
    inside = GRID[(law.cdf(GRID) > 0) & (law.cdf(GRID) < 1)]
    assert_allclose(law.cdf(inside), ref.cdf(inside), atol=1e-12)
    assert_allclose(np.exp(law.log_pdf(inside)), ref.pdf(inside), rtol=1e-10)


def test_laplace_quantile_closed_form():
    # F(log 2) = 1 - exp(-log 2)/2 = 3/4 for the standard law
    assert Laplace1D(0.0, 1.0).ppf(np.array([0.75]))[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_mixture_cdf_is_weighted_sum():
    mix = GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5])
    got = mix.cdf(np.array([0.0]))[0]
    want = 0.4 * scipy.stats.norm.cdf(2.0) + 0.6 * scipy.stats.norm.cdf(-2.0 / 1.5)
    assert got == pytest.approx(want, abs=1e-13)


def test_sampling_agrees_with_cdf():
    rng = stream(11, 0)
    for law in [Normal1D(0.5, 1.2), Laplace1D(-0.3, 0.9), GaussianMixture1D([0.3, 0.7], [-2.0, 1.0], [0.6, 1.1])]:
        x = law.sample(rng, 4000)
        stat = scipy.stats.kstest(x, law.cdf).statistic
        assert stat < 0.03


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    loc=st.floats(min_value=-5.0, max_value=5.0),
    scale=st.floats(min_value=0.1, max_value=4.0),
)
def test_quantile_roundtrip_property(p, loc, scale):
    for law in (Normal1D(loc, scale), Laplace1D(loc, scale), Logistic1D(loc, scale)):
        q = law.ppf(np.array([p]))[0]
        assert law.cdf(np.array([q]))[0] == pytest.approx(p, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-4.0, max_value=4.0),
    b=st.floats(min_value=-4.0, max_value=4.0),
)
def test_cdf_monotone_property(a, b):
    lo, hi = min(a, b), max(a, b)
    mix = GaussianMixture1D([0.5, 0.5], [-1.5, 1.2], [0.7, 1.1])
    assert mix.cdf(np.array([lo]))[0] <= mix.cdf(np.array([hi]))[0] + 1e-15


@settings(max_examples=60, deadline=None)
@given(mix=gaussian_mixtures(), p=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8))
def test_mixture_quantile_property(mix, p):
    p = np.array(p)
    v = mix.ppf(p)
    assert_allclose(mix.cdf(v), p, rtol=0, atol=1e-10)
    assert np.all(np.abs(v - bisect_quantile(mix.cdf, p)) <= 1e-9 * (1.0 + np.abs(v)))
    assert np.all(np.isfinite(mix.ppf(np.array([0.0, 1.0]))))
    assert type(mix.ppf(0.3)) is float


def test_mixture_quantile_when_weights_sum_below_one():
    # the floating-point sum of these weights is 0.9999999999999998, so the
    # CDF never reaches the top clipped probability 1 - 1e-16
    weights = [0.17058881064363823, 0.7294150670682138, 0.09999612228814778]
    locs, scales = np.array([-1.5, 0.3, 2.0]), np.array([0.6, 1.0, 0.8])
    mix = GaussianMixture1D(weights, locs, scales)
    assert sum(weights) < 1.0 - 1e-16
    for p in (1.0, 1.0 - 1e-16):
        v = mix.ppf(p)
        comp = locs + scales * scipy.special.ndtri(min(p, 1.0 - 1e-16))
        assert np.isfinite(v) and comp.min() <= v <= comp.max()


class TestGaussianDistribution:
    def test_log_density_matches_scipy(self, gauss2, rng):
        x = gauss2.sample(rng, 64)
        ref = scipy.stats.multivariate_normal(gauss2.mean, gauss2.cov)
        assert_allclose(gauss2.log_density(x), ref.logpdf(x), rtol=1e-10)

    def test_sample_moments(self, gauss2):
        x = gauss2.sample(stream(5, 1), 200_000)
        assert_allclose(x.mean(axis=0), gauss2.mean, atol=0.02)
        assert_allclose(np.cov(x.T), gauss2.cov, atol=0.03)

    def test_conditional_cdf_quantile_roundtrip(self, gauss2, rng):
        x = gauss2.sample(rng, 50)
        for j in range(2):
            u = gauss2.conditional_cdf(j, x[:, :j], x[:, j])
            back = gauss2.conditional_quantile(j, x[:, :j], u)
            assert_allclose(back, x[:, j], atol=1e-8)

    def test_conditional_cdf_is_uniform(self, gauss2):
        # first coordinate: marginal; second: conditional given the first
        x = gauss2.sample(stream(5, 2), 5000)
        for j in range(2):
            u = gauss2.conditional_cdf(j, x[:, :j], x[:, j])
            assert scipy.stats.kstest(u, "uniform").pvalue > 1e-4

    def test_rejects_non_psd(self):
        with pytest.raises(Exception):
            GaussianDistribution([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


# laws whose quantiles need no bisection; an exponential family inverts the
# tabulated CDF of each marginal exactly
closed_form_laws = st.one_of(gaussian_laws(), product_laws(), gaussian_mean_families())


@settings(max_examples=40, deadline=None)
@given(dist=closed_form_laws, p=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8))
def test_closed_form_quantile_matches_bisection(dist, p):
    p = np.array(p)
    z = dist.sample(stream(13, 0), p.size)
    for m in range(dist.dim):
        v = dist.conditional_quantile(m, z[:, :m], p)
        generic = bisect_quantile(lambda x: dist.conditional_cdf(m, z[:, :m], x), p)
        assert np.all(np.abs(v - generic) <= 1e-9 * (1.0 + np.abs(v)))
        assert_allclose(dist.conditional_cdf(m, z[:, :m], v), p, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(dist=closed_form_laws)
def test_closed_form_quantile_edges_and_scalars(dist):
    z = dist.sample(stream(13, 1), 2)
    for m in range(dist.dim):
        # a source CDF can return exactly 0 or 1 in its tails
        v = dist.conditional_quantile(m, z[:, :m], np.array([0.0, 1.0]))
        lo, hi = dist.coordinate_support(m)
        assert np.all(np.isfinite(v)) and np.all((lo <= v) & (v <= hi))
        # a single query is one (1, m) prefix row and one (1,) probability
        one = dist.conditional_quantile(m, z[:1, :m], np.array([0.3]))
        assert one.shape == (1,) and one.dtype == np.float64
        assert_allclose(one, dist.conditional_quantile(m, z[:, :m], np.full(2, 0.3))[:1], rtol=1e-14)


class TestProductDistribution:
    def test_log_density_is_sum_of_marginals(self, laplace_product, rng):
        x = laplace_product.sample(rng, 40)
        want = laplace_product.marginals[0].log_pdf(x[:, 0]) + laplace_product.marginals[1].log_pdf(x[:, 1])
        assert_allclose(laplace_product.log_density(x), want, rtol=1e-12)

    def test_conditionals_reduce_to_marginals(self, laplace_product, rng):
        x = laplace_product.sample(rng, 40)
        u = laplace_product.conditional_cdf(1, x[:, :1], x[:, 1])
        assert_allclose(u, laplace_product.marginals[1].cdf(x[:, 1]), atol=1e-12)


def test_interdecile_box_standard_normal():
    box = interdecile_box(GaussianDistribution([0.0], [[1.0]]))
    q = scipy.stats.norm.ppf(0.9)
    assert_allclose(box, [[-q, q]], atol=1e-9)


def test_expfam_gaussian_mean_family_density():
    # unit-covariance Gaussian with natural parameter equal to its mean,
    # from per-coordinate carrier, statistic and partition
    for d in range(1, 5):
        eta = np.array([0.7, -0.2, 2.5, -3.1])[:d]
        fam = ExpFamily(
            log_base=lambda x: -0.5 * x**2 - 0.5 * np.log(2 * np.pi),
            suff_stat=lambda x: x,
            log_partition=lambda e: 0.5 * e**2,
            eta=eta,
            bounds=np.column_stack([eta - 12.0, eta + 12.0]),
        )
        ref = GaussianDistribution(eta, np.eye(d))
        z = ref.sample(stream(7, 0), 32)
        assert fam.dim == d
        assert_allclose(fam.log_density(z), ref.log_density(z), rtol=0, atol=1e-12)
        assert_allclose(ExpFamily.gaussian_mean_family(eta).log_density(z), ref.log_density(z), rtol=0, atol=1e-12)
        assert_allclose(fam.log_base(z) + fam.suff_stat(z) @ eta - fam.log_partition(eta), ref.log_density(z), rtol=0, atol=1e-12)


def test_expfam_sample_means_at_d4():
    eta = np.array([2.9, -0.78, 0.0, -4.0])
    n = 100_000
    z = ExpFamily.gaussian_mean_family(eta).sample(stream(23, 0), n)
    assert z.shape == (n, 4)
    assert np.all(np.abs(z.mean(axis=0) - eta) < 5.0 / np.sqrt(n))


class TestExpFamilyTables:
    fam = ExpFamily.gaussian_mean_family([2.9, 0.78])

    @pytest.mark.parametrize("n", [4097, 3, 4, 1000])
    def test_cumulative_simpson_equals_scipy_bits(self, n):
        g = np.linspace(-9.1, 12.0, n)
        y = np.exp(-0.5 * (g - 1.3) ** 2) * (1.0 + 0.3 * np.sin(5.0 * g))
        dx = g[1] - g[0]
        want = scipy.integrate.cumulative_simpson(y, dx=dx)
        assert _cumulative_simpson(y, dx).tobytes() == want.tobytes()

    def test_rows_do_not_depend_on_blocks(self):
        z = stream(17, 0).normal(size=(130, 2)) + self.fam.eta
        p = stream(17, 1).random(130)
        single_q = [self.fam.conditional_quantile(1, z[i:i + 1, :1], p[i:i + 1])[0] for i in range(130)]
        single_c = [self.fam.conditional_cdf(1, z[i:i + 1, :1], z[i:i + 1, 1])[0] for i in range(130)]
        for n in (1, 64, 65, 130):
            assert np.array_equal(self.fam.conditional_quantile(1, z[:n, :1], p[:n]), single_q[:n])
            assert np.array_equal(self.fam.conditional_cdf(1, z[:n, :1], z[:n, 1]), single_c[:n])

    def test_sample_memory_is_bounded(self):
        fam = ExpFamily.gaussian_mean_family([-2.9, 0.78])
        tracemalloc.start()
        try:
            z = fam.sample(stream(19, 0), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (1000, 2) and np.all(np.isfinite(z))
        assert peak < 64 * 2**20


def test_spec_roundtrip():
    # one hand-written spec for each kind distribution_from_spec reads,
    # against the law built directly
    mixture = {"kind": "gaussian_mixture", "weights": [0.4, 0.6], "locs": [-1.0, 2.0], "scales": [0.5, 1.5]}
    cases = [
        ({"kind": "gaussian", "mean": [0.5, -1.0], "cov": [[2.0, 0.6], [0.6, 1.0]]},
         GaussianDistribution([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])),
        ({"kind": "product", "marginals": [
            {"kind": "normal", "loc": -2.0, "scale": 0.4},
            {"kind": "laplace", "loc": 0.3, "scale": 1.3},
            {"kind": "logistic", "loc": -0.2, "scale": 0.8},
            {"kind": "exponential", "rate": 0.7},
            mixture,
        ]},
         ProductDistribution([Normal1D(-2.0, 0.4), Laplace1D(0.3, 1.3), Logistic1D(-0.2, 0.8),
                              Exponential1D(0.7), GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5])])),
        ({"kind": "product", "marginals": [{"kind": "normal"}, {"kind": "laplace"},
                                           {"kind": "logistic"}, {"kind": "exponential"}]},
         ProductDistribution([Normal1D(), Laplace1D(), Logistic1D(), Exponential1D()])),
        ({"kind": "expfam", "family": "gaussian_mean", "eta": [-2.9, 0.78]},
         ExpFamily.gaussian_mean_family([-2.9, 0.78])),
    ]
    for spec, law in cases:
        built = distribution_from_spec(spec)
        assert type(built) is type(law)
        x = law.sample(stream(3, 3), 16)
        assert_allclose(built.log_density(x), law.log_density(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "explicit_named"}, "unknown distribution kind"),
    ({"kind": "product", "marginals": [{"kind": "cauchy"}]}, "unknown marginal kind"),
    ({"kind": "expfam", "family": "custom", "eta": [0.0]}, "unknown exponential family"),
])
def test_spec_rejects_unknown_kinds(spec, message):
    with pytest.raises(ValueError, match=message):
        distribution_from_spec(spec)
