"""Tests for the univariate laws and joint distributions."""

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from idlab import (
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
import idlab.measures
from idlab.errors import BracketFailure
from idlab.experiments import _RAISE
from idlab.measures import _BLOCK_WORK, _P_CEIL, _P_FLOOR, _log_sum_exp, _matmul_rows

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
        GaussianMixture1D([0.2, 0.5, 0.3], [-2.0, 0.0, 3.0], [0.3, 1.0, 0.6]),
        GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5]),
    ],
)
def test_quantile_inverts_cdf(law):
    x = law.ppf(PROBS)
    assert_allclose(law.cdf(x), PROBS, atol=1e-9)


@pytest.mark.parametrize(
    "law",
    [Normal1D(1.0, 2.0), Laplace1D(0.0, 1.0), Logistic1D(0.4, 1.1), Laplace1D(-1.0, 0.4)],
)
def test_cdf_matches_scipy(law):
    name = {"normal": "norm", "laplace": "laplace", "logistic": "logistic"}[law.kind]
    ref = getattr(scipy.stats, name)(loc=law.loc, scale=law.scale)
    assert_allclose(law.cdf(GRID), ref.cdf(GRID), atol=1e-12)
    assert_allclose(np.exp(law.log_pdf(GRID)), ref.pdf(GRID), rtol=1e-10)


def test_laplace_quantile_closed_form():
    # F(log 2) = 1 - exp(-log 2)/2 = 3/4 for the standard law
    assert Laplace1D(0.0, 1.0).ppf(np.array([0.75]))[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_laplace_cdf_one_exponential_equals_two():
    # -|u| is u itself where u < 0, so one exponential gives both tails'
    # bits, signed zeros, infinities and NaN included
    mags = np.concatenate([[0.0, 1e-300, 0.5, 709.0, 710.0, 745.0, 1e5, 1e300, np.inf],
                           np.logspace(-12, 300, 2000)])
    x = np.concatenate([mags, -mags, [np.nan]])
    for law in (Laplace1D(), Laplace1D(0.3, 1.3)):
        u = (x - law.loc) / law.scale
        with np.errstate(all="ignore"):
            want = np.where(u < 0, 0.5 * np.exp(u), 1.0 - 0.5 * np.exp(-np.abs(u)))
            got = law.cdf(x)
        assert got.tobytes() == want.tobytes()


def test_laplace_ppf_one_log_equals_two():
    # min(p, 1 - p) is p below 1/2 and the exact 1 - p above, so one log
    # serves both tails; signed zeros, the clip edges, p outside [0, 1]
    # and NaN included
    p = np.concatenate([[0.0, -0.0, 0.5, 1.0, 1e-300, 1e-17, 1.0 - 1e-16, 0.5 - 1e-17,
                         0.5 + 2e-16, -0.1, 1.1, np.inf, -np.inf, np.nan],
                        stream(27, 0).random(10_000)])
    for law in (Laplace1D(), Laplace1D(-0.0, 0.4), Laplace1D(0.3, 1.3)):
        with np.errstate(all="ignore"):
            lower = law.loc + law.scale * np.log(2.0 * np.minimum(p, 0.5))
            upper = law.loc - law.scale * np.log(2.0 * np.minimum(1.0 - p, 0.5))
            want = np.where(p < 0.5, lower, upper)
            got = law.ppf(p)
        assert got.tobytes() == want.tobytes()


def test_laplace_cdf_far_tail_raises_nothing():
    # the upper tail used to form exp(u) too, which overflows at u = 710
    # although the CDF there is 1
    with np.errstate(**_RAISE):
        assert Laplace1D().cdf(np.array([710.0, 1e300, -1e300])).tolist() == [1.0, 1.0, 0.0]


def _log_sum_exp_cases(n, k, seed):
    """``(n, k)`` rows with ties, infinities and NaN, and positive weights."""
    rng = stream(seed, k)
    a = rng.normal(size=(n, k)) * rng.choice([1.0, 30.0, 1e3], size=(n, 1))
    a[::3] = np.round(a[::3])
    a[1::7, 0] = a[1::7, -1]
    special = np.array([np.inf, -np.inf, np.nan])
    hit = rng.random((n, k)) < 0.01
    a[hit] = special[rng.integers(0, 3, size=hit.sum())]
    a[2::101] = -np.inf
    a[3::103] = np.inf
    w = rng.random(k) + 0.05
    return a, w / w.sum()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_log_sum_exp_equals_scipy_bits(k):
    a, w = _log_sum_exp_cases(100_000, k, 26)
    want = scipy.special.logsumexp(a, axis=-1, b=w)
    assert np.isnan(want).any() and np.isneginf(want).any() and np.isposinf(want).any()
    cols = [a[:, j] for j in range(k)]
    assert _log_sum_exp(cols, w).tobytes() == want.tobytes()
    with np.errstate(**_RAISE):
        assert _log_sum_exp(cols, w).tobytes() == want.tobytes()
    for row in (a[0], a[2], a[3]):
        got = _log_sum_exp(list(row), w)
        assert type(got) is np.float64
        assert np.array_equal(got, scipy.special.logsumexp(row, axis=-1, b=w), equal_nan=True)


def test_mixture_log_pdf_equals_scipy_logsumexp_bits():
    mix = GaussianMixture1D([0.2, 0.5, 0.3], [-2.0, 0.0, 2.0], [0.5, 1.0, 0.5])
    x = np.concatenate([stream(26, 0).normal(size=100_000) * 4,
                        [0.0, -2.0, 2.0, np.inf, -np.inf, np.nan, 1e150]])
    u = mix._args(x)
    comp = -0.5 * u * u - np.log(mix.scales) - 0.5 * np.log(2.0 * np.pi)
    want = scipy.special.logsumexp(comp, axis=-1, b=mix.weights)
    with np.errstate(**_RAISE):
        assert mix.log_pdf(x).tobytes() == want.tobytes()


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


# kr-identity's first marginal, and the most separated mixture the transport
# benchmark draws (locs and scales at the ends of their ranges)
TRANSPORT_MIXTURES = [([0.4, 0.6], [-1.5, 1.2], [0.7, 1.1]),
                      ([0.5, 0.5], [-2.0, 2.0], [0.5, 0.5])]
THREE_COMPONENTS = ([0.2, 0.5, 0.3], [-1.7, 0.4, 2.2], [0.6, 1.3, 0.9])


@pytest.mark.parametrize("params", TRANSPORT_MIXTURES + [THREE_COMPONENTS])
def test_mixture_segment_lookup_equals_searchsorted_bits(params):
    mix = GaussianMixture1D(*params)
    _, cdf, _, first, wide = mix._cdf_table()
    assert wide.any() and not wide.all()  # both the advances and the search
    tails = np.concatenate([10.0 ** -np.arange(1, 301), 1.0 - 10.0 ** -np.arange(1, 17)])
    edges = np.arange(1, first.size - 1) / (first.size - 1)
    q = np.concatenate([stream(43, 0).random(100_000), edges, np.nextafter(edges, 0.0),
                        np.clip(cdf, _P_FLOOR, _P_CEIL), [_P_FLOOR, _P_CEIL], tails])
    assert np.all((q > 0) & (q < 1))
    got = mix._segment(q)
    assert got.tobytes() == np.searchsorted(cdf, q, side="left").tobytes()


@pytest.mark.parametrize("params", TRANSPORT_MIXTURES + [THREE_COMPONENTS])
def test_mixture_quantile_matches_bisection(params):
    mix = GaussianMixture1D(*params)
    p = np.concatenate([10.0 ** -np.linspace(300, 3, 1000), np.linspace(1e-3, 0.999, 1000),
                        0.999 * stream(47, 0).random(2000)])
    x = mix.ppf(p)
    assert np.all(np.abs(x - bisect_quantile(mix.cdf, p)) <= 1e-12 * (1.0 + np.abs(x)))


@pytest.mark.parametrize("law", [GaussianMixture1D(*THREE_COMPONENTS), Normal1D(1.3)])
def test_quantile_of_nan_is_nan(law):
    p = np.array([0.3, np.nan, 0.0, np.nan, 1.0])
    with np.errstate(**_RAISE):
        x = law.ppf(p)
        assert np.isnan(law.ppf(np.nan))
    assert np.array_equal(np.isnan(x), np.isnan(p))
    assert x[[0, 2, 4]].tobytes() == law.ppf(p[[0, 2, 4]]).tobytes()


class _CountingSpecial:
    """``scipy.special`` that counts the points ``ndtr`` is evaluated at,
    or makes every one of them NaN."""

    def __init__(self, nan=False):
        self.points, self.nan = 0, nan

    def ndtr(self, u):
        self.points += np.size(u)
        out = scipy.special.ndtr(u)
        return out * np.nan if self.nan else out

    def __getattr__(self, name):
        return getattr(scipy.special, name)


def test_mixture_quantile_converges_in_the_far_tails():
    # from well right of a deep-tail root, Newton on the CDF moves only
    # ~scale**2 / |x| (~0.03 here) a step, so the start must be close
    mix = GaussianMixture1D(*TRANSPORT_MIXTURES[0])
    low = 10.0 ** -np.arange(1, 301)
    assert_allclose(mix.cdf(mix.ppf(low)), low, rtol=1e-9, atol=0)
    high = 1.0 - 10.0 ** -np.arange(1, 17)
    assert_allclose(mix.cdf(mix.ppf(high)), high, rtol=0, atol=1e-15)


@pytest.mark.parametrize("params", TRANSPORT_MIXTURES)
def test_mixture_quantile_cdf_evaluations_per_row(params, monkeypatch):
    # mixture-CDF evaluations per quantile row, table build included: a
    # count of work that does not depend on the machine
    counter = _CountingSpecial()
    monkeypatch.setattr(idlab.measures, "special", counter)
    p = stream(29, 0).random(10_000)
    x = GaussianMixture1D(*params).ppf(p)
    monkeypatch.undo()
    assert_allclose(GaussianMixture1D(*params).cdf(x), p, rtol=0, atol=1e-12)
    assert counter.points / len(params[0]) / p.size <= 1.5


def test_mixture_quantile_open_at_the_cap_raises(monkeypatch):
    mix = GaussianMixture1D(*TRANSPORT_MIXTURES[0])
    mix.ppf(0.5)  # the table, built on the true CDF
    monkeypatch.setattr(idlab.measures, "special", _CountingSpecial(nan=True))
    with pytest.raises(BracketFailure, match="did not converge"):
        mix.ppf(np.array([0.2, 0.7]))


def test_mixture_cdf_equals_broadcast_bits():
    mix = GaussianMixture1D([0.2, 0.5, 0.3], [-1.7, 0.4, 2.2], [0.6, 1.3, 0.9])
    x = stream(31, 0).normal(scale=3.0, size=100_000)
    for pts in (x[0], x, x.reshape(250, 400)):
        want = scipy.special.ndtr((pts[..., None] - mix.locs) / mix.scales) @ mix.weights
        got = mix.cdf(pts)
        assert type(got) is type(want) and got.tobytes() == want.tobytes()


def _gaussian_moments(law, m, prefix):
    """Coordinate ``m``'s conditional mean and sd given ``(n, m)`` prefix
    rows, from the law's ``mean`` and ``cov`` alone: ``mean[m]`` plus the
    prefix less its means times ``solve(cov[:m, :m], cov[:m, m])``."""
    if m == 0:
        return np.full(prefix.shape[0], law.mean[0]), np.sqrt(law.cov[0, 0])
    beta = np.linalg.solve(law.cov[:m, :m], law.cov[:m, m])
    sd = np.sqrt(max(law.cov[m, m] - law.cov[m, :m] @ beta, 0.0))
    return (prefix - law.mean[:m]) @ beta + law.mean[m], sd


def _column_cdf(law, rows, m):
    """Column ``m`` of ``law``'s Rosenblatt sweep as a function of column
    ``m`` of ``rows`` alone, the other columns held."""
    def cdf(x):
        y = np.array(rows)
        y[:, m] = x
        return law.rosenblatt(y)[:, m]
    return cdf


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
        back = gauss2.inverse_rosenblatt(gauss2.rosenblatt(x))
        for j in range(2):
            assert_allclose(back[:, j], x[:, j], atol=1e-8)

    def test_conditional_cdf_is_uniform(self, gauss2):
        # first column: marginal; second: conditional given the first
        u = gauss2.rosenblatt(gauss2.sample(stream(5, 2), 5000))
        for j in range(2):
            assert scipy.stats.kstest(u[:, j], "uniform").pvalue > 1e-4

    def test_conditional_cdf_equals_formula_bits(self, gauss2):
        x = gauss2.sample(stream(5, 3), 1000)
        u = gauss2.rosenblatt(x)
        for j in range(2):
            mu, sd = _gaussian_moments(gauss2, j, x[:, :j])
            want = scipy.special.ndtr((x[:, j] - mu) / sd)
            assert u[:, j].tobytes() == want.tobytes()

    def test_rejects_non_psd(self):
        with pytest.raises(Exception):
            GaussianDistribution([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


# laws whose quantiles need no bisection; an exponential family inverts each
# marginal by its closed-form member
closed_form_laws = st.one_of(gaussian_laws(), product_laws(), gaussian_mean_families())


@settings(max_examples=40, deadline=None)
@given(dist=closed_form_laws, p=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8))
def test_closed_form_quantile_matches_bisection(dist, p):
    # column m of the inverse sweep against bisection on column m of the
    # forward sweep, given the prefix the inverse sweep solved
    p = np.array(p)
    u = dist.rosenblatt(dist.sample(stream(13, 0), p.size))
    for m in range(dist.dim):
        um = np.array(u)
        um[:, m] = p
        x = dist.inverse_rosenblatt(um)
        cdf = _column_cdf(dist, x, m)
        v = x[:, m]
        generic = bisect_quantile(cdf, p)
        assert np.all(np.abs(v - generic) <= 1e-9 * (1.0 + np.abs(v)))
        assert_allclose(cdf(v), p, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(dist=closed_form_laws)
def test_closed_form_quantile_edges_and_scalars(dist):
    u = dist.rosenblatt(dist.sample(stream(13, 1), 2))
    for m in range(dist.dim):
        # a source CDF can return exactly 0 or 1 in its tails
        edges = np.array(u)
        edges[:, m] = [0.0, 1.0]
        assert np.all(np.isfinite(dist.inverse_rosenblatt(edges)[:, m]))
        # a single query is one (1, dim) row
        mid = np.array(u)
        mid[:, m] = 0.3
        one = dist.inverse_rosenblatt(mid[:1])
        assert one.shape == (1, dist.dim) and one.dtype == np.float64
        assert_allclose(one[:, m], dist.inverse_rosenblatt(mid)[:1, m], rtol=1e-14)


def _sweep_rows(d, n, seed):
    """``(n, d)`` points and probabilities with ±0, the far tails and the
    clip edges among their rows."""
    rng = stream(seed, d)
    x = rng.normal(scale=2.0, size=(n, d))
    x[:6] = np.array([0.0, -0.0, 40.0, -40.0, 1e3, -1e3])[:, None]
    x[6, ::2] = -0.0
    u = rng.random((n, d))
    u[:7] = np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, 1e-17, 1.0 - 1e-13])[:, None]
    return x, u


def _sweep_laws():
    rng = stream(41, 0)
    for d in range(1, 9):
        a = rng.normal(size=(d, d))
        mean = rng.normal(size=d)
        mean[0] = -0.0  # the first conditional mean is the mean itself
        yield f"gaussian-{d}", GaussianDistribution(mean, a @ a.T + 0.3 * np.eye(d))
    yield "product-mixture", ProductDistribution([
        GaussianMixture1D([0.3, 0.7], [-1.0, 1.5], [0.6, 0.9]), Laplace1D(0.2, 1.3),
        Logistic1D(-0.5, 0.7), Normal1D(0.1, 2.0)])
    yield "expfam", ExpFamily.gaussian_mean_family([0.7, -1.2, 0.0])


def _coordinate_cdf(law, m, prefix, values):
    """Coordinate ``m``'s conditional CDF at ``values`` given the ``(n, m)``
    prefix rows: SciPy's ``ndtr`` on `_gaussian_moments` for a Gaussian,
    the marginal's own CDF for a product."""
    if isinstance(law, GaussianDistribution):
        mu, sd = _gaussian_moments(law, m, prefix)
        return scipy.special.ndtr((values - mu) / sd)
    return law.marginals[m].cdf(values)


def _coordinate_quantile(law, m, prefix, p):
    """The inverse of `_coordinate_cdf` in ``values`` at ``p``, clipped to
    ``[_P_FLOOR, _P_CEIL]``."""
    p = np.clip(p, _P_FLOOR, _P_CEIL)
    if isinstance(law, GaussianDistribution):
        mu, sd = _gaussian_moments(law, m, prefix)
        return mu + sd * scipy.special.ndtri(p)
    return law.marginals[m].ppf(p)


@pytest.mark.parametrize("law", [law for _, law in _sweep_laws()],
                         ids=[name for name, _ in _sweep_laws()])
def test_sweeps_equal_coordinate_loops_bit_for_bit(law):
    # each coordinate's conditional given the prefix rows, one call per
    # coordinate, is the reference; the Gaussian sweep's gemv on a view of
    # its centred block must give the bits of the per-coordinate product on
    # a fresh prefix array, at any BLAS threading and on both sides of a
    # gemv's thread threshold
    d = law.dim
    sizes = (1, 7, 2_000, 100_001) if d == 8 else (1, 7, 2_000)
    rows_x, rows_u = _sweep_rows(d, sizes[-1], 42)
    for n in sizes:
        x, u = rows_x[:n], rows_u[:n]
        want_u = np.empty((n, d))
        want_x = np.empty((n, d))
        for m in range(d):
            want_u[:, m] = _coordinate_cdf(law, m, x[:, :m], x[:, m])
            want_x[:, m] = _coordinate_quantile(law, m, want_x[:, :m], u[:, m])
        got_u, got_x = law.rosenblatt(x), law.inverse_rosenblatt(u)
        assert got_u.flags.f_contiguous and got_x.flags.c_contiguous
        assert got_u.tobytes("A") == want_u.tobytes("F"), n
        assert got_x.tobytes() == want_x.tobytes(), n


def _gather_scatter_quantiles(mix, q):
    """The mixture's Newton loop on full-size ``x``, ``lo`` and ``hi``,
    gathered and scattered through the open rows' index every step."""
    x, lo, hi = mix._start(q)
    curv_w = mix._dens_w / mix.scales
    live = np.arange(q.size)
    for _ in range(100):
        xs = x[live]
        u = mix._args(xs)
        f = scipy.special.ndtr(u) @ mix.weights - q[live]
        lo_l = np.where(f < 0, xs, lo[live])
        hi_l = np.where(f > 0, xs, hi[live])
        e = np.exp(-0.5 * u * u)
        slope = e @ mix._dens_w
        with np.errstate(all="ignore"):
            step = f / slope
            left = np.abs(np.multiply(u, e, out=e) @ curv_w / slope)
            left *= 0.5 * step * step
        newton = xs - step
        tol = 1e-14 * (1.0 + np.abs(xs))
        close = np.abs(step) <= tol
        strict = (newton > lo_l) & (newton < hi_l)
        x[live] = np.where(close | strict, np.clip(newton, lo_l, hi_l), 0.5 * (lo_l + hi_l))
        lo[live], hi[live] = lo_l, hi_l
        live = live[~(close | (strict & (left <= 0.02 * tol)) | (hi_l - lo_l <= tol))]
        if not live.size:
            return x
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("params", TRANSPORT_MIXTURES + [THREE_COMPONENTS])
def test_mixture_quantile_compaction_keeps_the_bits(params):
    # the Newton loop keeps its open rows alone, compacted each step; each
    # row must take the steps, and the bits, of the loop that gathers them
    # from full-size arrays.  (A row solved alone is not the reference:
    # OpenBLAS's gemv rounds a row by its position in the batch.)
    mix = GaussianMixture1D(*params)
    far = 10.0 ** -np.arange(1, 301, 7)
    p = np.concatenate([stream(43, 0).random(10_000), far, 1.0 - 10.0 ** -np.arange(1, 17),
                        [0.0, 1.0, 0.5]])
    want = _gather_scatter_quantiles(mix, np.clip(p, _P_FLOOR, _P_CEIL))
    assert mix.ppf(p).tobytes() == want.tobytes()


class TestProductDistribution:
    def test_log_density_is_sum_of_marginals(self, laplace_product, rng):
        x = laplace_product.sample(rng, 40)
        want = laplace_product.marginals[0].log_pdf(x[:, 0]) + laplace_product.marginals[1].log_pdf(x[:, 1])
        assert_allclose(laplace_product.log_density(x), want, rtol=1e-12)

    def test_conditionals_reduce_to_marginals(self, laplace_product, rng):
        x = laplace_product.sample(rng, 40)
        u = laplace_product.rosenblatt(x)[:, 1]
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
            member=Normal1D,
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
            mixture,
        ]},
         ProductDistribution([Normal1D(-2.0, 0.4), Laplace1D(0.3, 1.3), Logistic1D(-0.2, 0.8),
                              GaussianMixture1D([0.4, 0.6], [-1.0, 2.0], [0.5, 1.5])])),
        ({"kind": "product", "marginals": [{"kind": "normal"}, {"kind": "laplace"}, {"kind": "logistic"}]},
         ProductDistribution([Normal1D(), Laplace1D(), Logistic1D()])),
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
    # every parameter of a law is finite
    ({"kind": "product", "marginals": [{"kind": "normal", "scale": float("nan")}]}, "scale must be"),
    ({"kind": "product", "marginals": [{"kind": "laplace", "loc": float("inf")}]}, "loc must be finite"),
    ({"kind": "product", "marginals": [{"kind": "logistic", "scale": float("inf")}]}, "scale must be"),
    ({"kind": "product", "marginals": [{"kind": "gaussian_mixture", "weights": [0.5, 0.5],
                                        "locs": [0.0, float("inf")], "scales": [1.0, 1.0]}]},
     "locs must be finite"),
    ({"kind": "product", "marginals": [{"kind": "gaussian_mixture", "weights": [float("nan"), 0.5],
                                        "locs": [0.0, 1.0], "scales": [1.0, 1.0]}]},
     "weights must be finite"),
    ({"kind": "product", "marginals": [{"kind": "gaussian_mixture", "weights": [0.5, 0.5],
                                        "locs": [0.0, 1.0], "scales": [1.0, float("nan")]}]},
     "scales must be finite"),
    ({"kind": "gaussian", "mean": [float("nan"), 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}, "mean must be finite"),
    ({"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, float("nan")], [float("nan"), 1.0]]},
     "cov must be finite"),
    ({"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[float("inf"), 0.0], [0.0, 1.0]]}, "cov must be finite"),
    ({"kind": "expfam", "family": "gaussian_mean", "eta": [float("nan"), 0.0]}, "eta must be finite"),
])
def test_spec_rejects_unknown_kinds(spec, message):
    with pytest.raises(ValueError, match=message):
        distribution_from_spec(spec)


@pytest.mark.parametrize("d", range(1, 9))
def test_matmul_rows_equals_matmul_bit_for_bit(d):
    # square MT as in a map's matrix, wide and narrow as in a generator's
    # loading and left inverse; n on each side of a block edge, where the
    # blocks change count, and at the lab's row counts
    rng = stream(25, d)
    for m in sorted({d, d + 2, max(1, d // 2)}):
        rows = _BLOCK_WORK // (d * m)
        for n in [0, 1, 2 * rows, 2 * rows + 1, 2 * rows + 2, 10_000, 100_001]:
            M = rng.normal(size=(m, d))
            wide = rng.normal(size=(n, d + 3))
            for X in (np.ascontiguousarray(wide[:, :d]), wide[:, :d]):
                for MT in (M.T, np.ascontiguousarray(M.T)):
                    got = _matmul_rows(X, MT)
                    assert got.shape == (n, m)
                    assert got.tobytes() == (X @ MT).tobytes(), (m, n, X.flags.c_contiguous)
