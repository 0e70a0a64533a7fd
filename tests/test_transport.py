"""Triangular transport maps: closed forms, recursions, closure laws."""

import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from idlab import (
    AffineMap,
    Automorphism,
    CdfChainMap,
    ComposedMap,
    ExpFamily,
    GaussianDistribution,
    GaussianMixture1D,
    Laplace1D,
    LinearGenerator,
    MarginalQuantileMap,
    Normal1D,
    ProductDistribution,
    component_wise_check,
    fit_marginal_quantile_transport,
    interdecile_box,
    jacobian_fd,
    kr_transport,
    log_det_jacobian,
    pushforward_check,
    stream,
)
from idlab.errors import DimensionMismatch, NonFiniteDerivative, SingularMatrix
from idlab.indeterminacy import TransportedDistribution
from idlab.measures import _add_offset, _matmul_rows, _solve_lower
from idlab.transport import _ks_critical, _ks_uniform_stats

from conftest import gaussian_laws, gaussian_mixtures, probe_grid, product_laws, rng_state


class TestAffineMap:
    def test_roundtrip(self, rng):
        M = np.array([[2.0, 0.0], [0.7, 1.5]])
        amap = AffineMap(M, np.array([1.0, -2.0]))
        z = rng.normal(size=(40, 2))
        assert_allclose(amap.inverse(amap.forward(z)), z, atol=1e-12)

    def test_log_det_jacobian_is_constant(self, rng):
        M = np.array([[2.0, 0.0], [0.7, 1.5]])
        amap = AffineMap(M)
        z = rng.normal(size=(10, 2))
        assert_allclose(amap.log_det_jacobian(z), np.log(3.0), atol=1e-12)

    def test_inverted_matrix_and_offset(self):
        L, b = np.array([[2.0, 0.0], [0.7, 1.5]]), np.array([1.0, -2.0])
        amap = AffineMap(L, b)
        assert_allclose(amap.matrix, L, atol=0)
        assert_allclose(amap.offset, b, atol=0)
        inv = amap.inverted()
        assert_allclose(inv.matrix, np.linalg.inv(L), atol=1e-15)
        assert_allclose(inv.offset, -np.linalg.inv(L) @ b, atol=1e-15)

    def test_rejects_non_lower_triangular(self):
        with pytest.raises(Exception):
            AffineMap(np.array([[1.0, 0.5], [0.0, 1.0]]))


def _sweep_maps(laplace, gauss):
    mixture = ProductDistribution([GaussianMixture1D([0.4, 0.6], [-1.5, 1.2], [0.7, 1.1]), Normal1D(0.5, 2.0)])
    affine = AffineMap(np.array([[2.0, 0.0], [0.7, 1.5]]), np.array([0.5, 0.5]))
    return {
        "affine": affine,
        "cdf-chain-laplace-gaussian": CdfChainMap(laplace, gauss),
        "cdf-chain-mixture": CdfChainMap(laplace, mixture),
        "composed": ComposedMap([CdfChainMap(laplace, gauss), affine]),
        "marginal-quantile": fit_marginal_quantile_transport(gauss.sample(stream(41, 0), 400), laplace, grid_size=33),
    }


@pytest.mark.parametrize("name", ["affine", "cdf-chain-laplace-gaussian", "cdf-chain-mixture", "composed", "marginal-quantile"])
def test_sweep_contract(name, laplace_product, gauss2, rng):
    """Output columns read no later input column, and every inverse round-trips."""
    mapping = _sweep_maps(laplace_product, gauss2)[name]
    z = laplace_product.sample(rng, 64)
    x = mapping.forward(z)
    moved = laplace_product.sample(rng, 64)
    for k in range(1, mapping.dim):
        w = np.concatenate([z[:, :k], moved[:, k:]], axis=1)
        assert np.array_equal(mapping.forward(w)[:, :k], x[:, :k])
    assert_allclose(mapping.inverse(x), z, rtol=0, atol=1e-7)
    if isinstance(mapping, MarginalQuantileMap):
        with pytest.raises(NotImplementedError):
            mapping.inverted()
        with pytest.raises(NotImplementedError):
            mapping.log_det_jacobian(z)
    else:
        assert_allclose(mapping.inverted().forward(x), mapping.inverse(x), rtol=0, atol=1e-9)


class TestGaussianClosedForm:
    def test_univariate_oracle(self):
        amap = kr_transport(GaussianDistribution([0.0], [[1.0]]), GaussianDistribution([2.0], [[9.0]]))
        assert isinstance(amap, AffineMap)
        assert_allclose(amap.matrix, [[3.0]], atol=1e-14)
        assert_allclose(amap.offset, [2.0], atol=1e-14)

    def test_bivariate_oracle(self):
        src = GaussianDistribution([0.0, 0.0], [[2.0, 0.6], [0.6, 1.0]])
        tgt = GaussianDistribution([1.0, -1.0], [[1.0, 0.0], [0.0, 4.0]])
        amap = kr_transport(src, tgt)
        # L_target @ inv(L_source), offsets mapped through the means
        want = np.array([[0.70710678118654746, 0.0], [-0.66258916237756542, 2.2086305412585509]])
        assert_allclose(amap.matrix, want, atol=1e-12)
        assert_allclose(amap.offset, [1.0, -1.0], atol=1e-12)

    def test_pushes_law_exactly(self, rng):
        src = GaussianDistribution([0.3, -0.2, 0.0], 0.25 * np.eye(3) + 0.5 * np.ones((3, 3)))
        tgt = GaussianDistribution([0.0, 1.0, 2.0], np.diag([1.0, 2.0, 0.5]))
        amap = kr_transport(src, tgt)
        x = amap.forward(src.sample(rng, 200_000))
        assert_allclose(x.mean(axis=0), tgt.mean, atol=0.02)
        assert_allclose(np.cov(x.T), tgt.cov, atol=0.03)


class TestCdfChain:
    def test_self_transport_is_identity(self, laplace_product, rng):
        amap = kr_transport(laplace_product, laplace_product, method="cdf_chain")
        z = laplace_product.sample(rng, 1000)
        assert float(np.abs(amap.forward(z) - z).max()) < 1e-6

    def test_matches_gaussian_closed_form(self, rng):
        src = GaussianDistribution([0.0, 0.0], [[2.0, 0.6], [0.6, 1.0]])
        tgt = GaussianDistribution([1.0, -1.0], [[1.0, 0.0], [0.0, 4.0]])
        chain = kr_transport(src, tgt, method="cdf_chain")
        closed = kr_transport(src, tgt)
        z = src.sample(rng, 500)
        assert float(np.abs(chain.forward(z) - closed.forward(z)).max()) < 1e-5

    def test_forward_inverse_roundtrip(self, laplace_product, gauss2, rng):
        amap = kr_transport(laplace_product, gauss2)
        z = laplace_product.sample(rng, 300)
        assert_allclose(amap.inverse(amap.forward(z)), z, atol=1e-7)

    def test_mixture_target_quantiles(self, rng):
        # transported samples must reproduce the target CDF coordinate-wise
        mix = ProductDistribution([GaussianMixture1D([0.4, 0.6], [-1.5, 1.2], [0.7, 1.1])])
        src = GaussianDistribution([0.0], [[1.0]])
        amap = kr_transport(src, mix)
        x = amap.forward(src.sample(rng, 8000))[:, 0]
        stat = scipy.stats.kstest(x, mix.marginals[0].cdf).statistic
        assert stat < 0.025


class TestCdfChainLogDet:
    """The chain's log-det is the density ratio log p_src(z) - log p_tgt(T z)."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_affine_closed_form(self, data):
        d = data.draw(st.integers(1, 4))
        src, tgt = data.draw(gaussian_laws(d)), data.draw(gaussian_laws(d))
        z = src.sample(stream(17, 0), 20)
        chain = CdfChainMap(src, tgt)
        assert_allclose(chain.log_det_jacobian(z), kr_transport(src, tgt).log_det_jacobian(z), rtol=0, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_finite_differences(self, data):
        d = data.draw(st.integers(1, 4))
        ends = [data.draw(gaussian_laws(d)), data.draw(product_laws(d, kinds=("logistic",)))]
        if data.draw(st.booleans()):
            ends.reverse()
        chain = CdfChainMap(*ends)
        z = ends[0].sample(stream(17, 1), 20)
        fd = np.linalg.slogdet(jacobian_fd(chain.forward, z))[1]
        assert_allclose(chain.log_det_jacobian(z), fd, rtol=0, atol=1e-6)

    def test_non_finite_log_density_raises(self):
        # the source log-density overflows to -inf at 1e200; the finiteness
        # check decides, whatever numpy's error state and the warnings filter
        chain = CdfChainMap(ProductDistribution([Normal1D()]), ProductDistribution([Laplace1D()]))
        inside = chain.log_det_jacobian(np.array([[0.5]]))
        assert inside.shape == (1,) and np.isfinite(inside[0])
        outside = np.array([[0.5], [1e200]])
        with pytest.raises(NonFiniteDerivative):
            chain.log_det_jacobian(outside)
        with np.errstate(all="raise"), pytest.raises(NonFiniteDerivative):
            chain.log_det_jacobian(outside)

    @pytest.mark.parametrize("mixture_target", [False, True])
    def test_transported_density_is_target_density(self, laplace_product, gauss2, rng, mixture_target):
        tgt = gauss2
        if mixture_target:
            tgt = ProductDistribution([GaussianMixture1D([0.4, 0.6], [-1.5, 1.2], [0.7, 1.1]), Normal1D(0.5, 2.0)])
        pushed = TransportedDistribution(laplace_product, CdfChainMap(laplace_product, tgt))
        x = tgt.sample(rng, 200)
        assert_allclose(pushed.log_density(x), tgt.log_density(x), rtol=0, atol=1e-8)


class TestClosureLaws:
    """Transports between fully supported laws compose and invert consistently."""

    def setup_method(self):
        self.P = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.3, 1.3)])
        self.Q = GaussianDistribution([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])
        self.R = ProductDistribution([Normal1D(0.0, 0.8), Normal1D(1.0, 1.4)])

    def test_inverse_swaps_endpoints(self, rng):
        fwd = kr_transport(self.P, self.Q)
        back = kr_transport(self.Q, self.P)
        x = self.Q.sample(rng, 400)
        assert float(np.abs(fwd.inverted().forward(x) - back.forward(x)).max()) < 1e-6

    def test_composition_matches_direct_route(self, rng):
        pq = kr_transport(self.P, self.Q)
        qr = kr_transport(self.Q, self.R)
        pr = kr_transport(self.P, self.R)
        z = self.P.sample(rng, 400)
        assert float(np.abs(ComposedMap([pq, qr]).forward(z) - pr.forward(z)).max()) < 1e-5

    def test_composed_log_det_adds(self, rng):
        pq = kr_transport(self.P, self.Q)
        qr = kr_transport(self.Q, self.R)
        z = self.P.sample(rng, 50)
        total = ComposedMap([pq, qr]).log_det_jacobian(z)
        assert_allclose(total, pq.log_det_jacobian(z) + qr.log_det_jacobian(pq.forward(z)), atol=1e-5)


@st.composite
def mixture_to_laplace(draw):
    """A product of two-component mixtures and a Laplace product, d <= 4."""
    d = draw(st.integers(1, 4))
    src = ProductDistribution([draw(gaussian_mixtures(k=2)) for _ in range(d)])
    return src, draw(product_laws(d, kinds=("laplace",)))


@st.composite
def gaussian_pairs(draw):
    d = draw(st.integers(1, 4))
    return draw(gaussian_laws(d)), draw(gaussian_laws(d))


@settings(max_examples=20, deadline=None)
@given(ends=mixture_to_laplace())
def test_cdf_chain_pushes_mixtures_onto_laplace(ends):
    # the map is exact, so a rejection at level 1e-6 would be a defect
    src, tgt = ends
    rep = pushforward_check(CdfChainMap(src, tgt), src, tgt, n=500, rng=stream(37, 0), alpha=1e-6)
    assert rep.passed


@settings(max_examples=30, deadline=None)
@given(ends=st.one_of(mixture_to_laplace(), gaussian_pairs()))
def test_compose_with_inverse_is_identity(ends):
    src, tgt = ends
    T = kr_transport(src, tgt)
    w, z = tgt.sample(stream(37, 1), 200), src.sample(stream(37, 2), 200)
    assert np.abs(ComposedMap([T.inverted(), T]).forward(w) - w).max() <= 1e-9
    assert np.abs(ComposedMap([T, T.inverted()]).forward(z) - z).max() <= 1e-9


def test_rosenblatt_uniformises(gauss2):
    x = gauss2.sample(stream(21, 0), 6000)
    u = gauss2.rosenblatt(x)
    assert u.shape == x.shape
    for j in range(2):
        assert scipy.stats.kstest(u[:, j], "uniform").pvalue > 1e-4
    # coordinates of the Rosenblatt image are independent uniforms
    assert abs(np.corrcoef(u.T)[0, 1]) < 0.05


def test_log_det_jacobian_fd_agrees_with_exact(rng):
    amap = AffineMap(np.array([[1.5, 0.0], [-0.4, 0.8]]), np.array([0.2, 0.0]))
    z = rng.normal(size=(20, 2))
    fd = np.linalg.slogdet(jacobian_fd(amap.forward, z))[1]
    assert_allclose(fd, log_det_jacobian(amap, z), rtol=0, atol=1e-6)


def test_jacobian_fd_linear(rng):
    M = np.array([[1.5, 0.0], [-0.4, 0.8]])
    amap = AffineMap(M)
    z = rng.normal(size=(5, 2))
    J = jacobian_fd(amap.forward, z)
    for row in J:
        assert_allclose(row, M, atol=1e-6)


class TestPushforwardCheck:
    def test_correct_map_passes(self, gauss2):
        src = GaussianDistribution([0.0, 0.0], np.eye(2))
        amap = kr_transport(src, gauss2)
        rep = pushforward_check(amap, src, gauss2, n=20_000, rng=stream(31, 0))
        assert rep.passed
        assert max(rep.statistics) < rep.critical_value

    def test_wrong_scale_fails(self):
        src = GaussianDistribution([0.0, 0.0], np.eye(2))
        wrong = GaussianDistribution([0.0, 0.0], 4.0 * np.eye(2))
        amap = kr_transport(src, src)
        rep = pushforward_check(amap, src, wrong, n=20_000, rng=stream(31, 1))
        assert not rep.passed

    def test_transport_between_different_families(self, laplace_product, gauss2):
        amap = kr_transport(laplace_product, gauss2)
        rep = pushforward_check(amap, laplace_product, gauss2, n=20_000, rng=stream(31, 2))
        assert rep.passed


    @pytest.mark.parametrize("target_cov, seed, statistics, passed", [
        ([[2.0, 0.6], [0.6, 1.0]], 0, [0.035604223131321056, 0.044072496756322826], True),
        ([[4.0, 0.0], [0.0, 4.0]], 1, [0.17404897176255182, 0.18331104138428017], False),
    ])
    def test_verdict_needs_no_p_values(self, target_cov, seed, statistics, passed):
        # the statistics and verdicts are those the check gave when it also
        # computed kstwo.sf p-values; the critical value is Stephens' at
        # n = 500, level 0.005 (kstwo.isf gave 0.07703777808315361)
        src = GaussianDistribution([0.0, 0.0], np.eye(2))
        tgt = GaussianDistribution([0.5, -1.0] if passed else [0.0, 0.0], target_cov)
        amap = kr_transport(src, tgt if passed else src)
        rep = pushforward_check(amap, src, tgt, n=500, rng=stream(41, seed))
        assert_allclose(rep.statistics, statistics, rtol=1e-12, atol=0)
        assert_allclose(rep.critical_value, 0.07697452804163014, rtol=1e-12, atol=0)
        assert rep.passed is passed

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_draw(self, gauss2, n):
        rng = stream(31, 3)
        state = rng_state(rng)
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            pushforward_check(kr_transport(gauss2, gauss2), gauss2, gauss2, n, rng)
        assert rng_state(rng) == state

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, np.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        # at alpha = 0 the critical value is inf, and this map, which moves
        # and triples every coordinate, would pass
        std = GaussianDistribution([0.0, 0.0], np.eye(2))
        rng = stream(1, 0)
        state = rng_state(rng)
        with pytest.raises(ValueError, match="alpha must lie in"):
            pushforward_check(AffineMap([[3, 0], [0, 3]], [5, 5]), std, std, 2000, rng, alpha=alpha)
        assert rng_state(rng) == state

    @pytest.mark.parametrize("level", [0.01, 0.0125, 0.005, 0.01 / 3, 0.0025, 1e-6, 5e-7, 1e-6 / 3, 2.5e-7])
    def test_critical_value_against_kstwo(self, level):
        small = np.arange(1, 141)
        exact = scipy.stats.kstwo.isf(level, small)
        assert_allclose([_ks_critical(level, n) for n in small], exact, rtol=1e-7, atol=0)
        large = np.r_[141:400, 500, 1000, 2000, 5000, 20_000, 100_000, 1_000_000]
        exact = scipy.stats.kstwo.isf(level, large)
        got = np.array([_ks_critical(level, n) for n in large])
        assert np.all(got <= exact)
        assert_allclose(got, exact, rtol=1.5e-3, atol=0)


def _ks_column_stat(u):
    """The two-sided KS statistic of one column, as a sort and two grids."""
    n = u.shape[0]
    s = np.sort(u)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - s), np.max(s - (grid - 1.0 / n))))


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
def test_ks_uniform_stats_equal_per_column_formula(n, d):
    # the in-place sorts against one shared grid give each column's
    # statistic bit for bit, in either memory order; every other column is
    # rounded to a 1/64 lattice, so it has ties from n = 65 on
    U = stream(26, n).random((n, d))
    U[:, ::2] = np.round(U[:, ::2] * 64) / 64
    want = np.array([_ks_column_stat(U[:, m]) for m in range(d)])
    for order in "CF":
        got = _ks_uniform_stats(np.array(U, order=order))
        assert got.tobytes() == want.tobytes(), order


@st.composite
def affine_kernel_cases(draw):
    """Sizes, a seed and well-posed affine coefficients at d <= 4."""
    n = draw(st.sampled_from([1, 7, 1000]))
    d = draw(st.integers(1, 4))
    dx = draw(st.integers(d, 4))
    entries = st.floats(-0.5, 0.5)
    A = np.reshape(draw(st.lists(entries, min_size=dx * d, max_size=dx * d)), (dx, d))
    b = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dx, max_size=dx)))
    # a unit diagonal of 3 dominates the off-diagonal entries, so the top
    # block is invertible and its lower triangle a valid AffineMap matrix
    return n, d, draw(st.integers(0, 2**32 - 1)), A + 3.0 * np.eye(dx, d), b


@settings(max_examples=40, deadline=None)
@given(case=affine_kernel_cases())
def test_affine_kernels_match_broadcast_add(case):
    # the kernels add or take off the offset column by column in place; the
    # bits must equal the plain broadcast expressions and the caller's array
    # must stay as it was
    n, d, seed, W, b = case
    gauss = GaussianDistribution(b[:d], W[:d] @ W[:d].T)
    expected = b[:d] + stream(seed).standard_normal((n, d)) @ gauss.cholesky.T
    assert np.array_equal(gauss.sample(stream(seed), n), expected)

    Z = stream(seed, 1).normal(size=(n, d))
    Z0 = Z.copy()
    gen = LinearGenerator(W, b)
    assert np.array_equal(gen.forward(Z), Z @ W.T + b)
    assert np.array_equal(Z, Z0)

    amap = AffineMap(np.tril(W[:d]), b[:d])
    assert np.array_equal(amap.forward(Z), b[:d] + Z @ amap.matrix.T)
    assert np.array_equal(Z, Z0)

    X = stream(seed, 2).normal(size=(n, W.shape[0]))
    X0 = X.copy()
    assert np.array_equal(gen.inverse(X), (X - b) @ gen._pinv.T)
    assert np.array_equal(X, X0)
    expected = _solve_lower(amap.matrix, (Z - b[:d]).T).T
    assert np.array_equal(amap.inverse(Z), expected)
    assert np.array_equal(Z, Z0)

    L = gauss.cholesky
    quad = np.sum(_solve_lower(L, (Z - b[:d]).T) ** 2, axis=0)
    expected = -0.5 * (quad + 2.0 * np.sum(np.log(np.diag(L))) + d * np.log(2.0 * np.pi))
    assert np.array_equal(gauss.log_density(Z), expected)
    assert np.array_equal(Z, Z0)


def _spd_cholesky(rng, d):
    A = rng.normal(size=(d, d))
    return np.linalg.cholesky(A @ A.T + 0.5 * np.eye(d))


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("cols", [1, 2, 1000])
def test_solve_lower_matches_scipy(d, cols):
    rng = stream(d, cols)
    for _ in range(20):
        L = _spd_cholesky(rng, d)
        B = rng.normal(size=(d, cols))
        B0 = B.copy()
        want = scipy.linalg.solve_triangular(L, B, lower=True)
        got = _solve_lower(L, B)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(B, B0)


@pytest.mark.parametrize("d", range(1, 9))
def test_gaussian_log_density_matches_two_solves(d):
    rng = stream(d, 9)
    for _ in range(20):
        L = _spd_cholesky(rng, d)
        gauss = GaussianDistribution(rng.normal(size=d), L @ L.T)
        Z = rng.normal(scale=3.0, size=(200, d))
        c = Z - gauss.mean
        C = gauss.cholesky
        quad = np.sum(c.T * np.linalg.solve(C.T, np.linalg.solve(C, c.T)), axis=0)
        want = -0.5 * (quad + 2.0 * np.sum(np.log(np.diag(C))) + d * np.log(2.0 * np.pi))
        assert np.abs(gauss.log_density(Z) - want).max() <= 1e-13 * np.abs(want).max()


class TestComponentWiseCheck:
    def test_diagonal_passes(self):
        probes = probe_grid(2)
        amap = AffineMap(np.diag([2.0, 0.5]), np.array([1.0, -1.0]))
        assert component_wise_check(amap, probes).passed

    def test_shear_fails(self):
        probes = probe_grid(2)
        amap = AffineMap(np.array([[1.0, 0.0], [0.9, 1.0]]))
        rep = component_wise_check(amap, probes)
        assert not rep.passed
        assert rep.max_offdiag > 0.5


class TestAutomorphism:
    def test_from_matrix_exact_inverse(self, rng):
        M = np.array([[0.8, -0.6], [0.6, 0.8]])
        auto = Automorphism.from_matrix(M, np.array([1.0, 2.0]))
        z = rng.normal(size=(30, 2))
        assert_allclose(auto.inverse(auto.forward(z)), z, atol=1e-12)
        assert_allclose(auto.forward(z), z @ M.T + [1.0, 2.0], rtol=0, atol=0)

    @pytest.mark.parametrize("matrix", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1e-320]]])
    def test_from_matrix_rejects_a_matrix_without_a_finite_inverse(self, matrix):
        # np.linalg.inv rejects the first; the second's inverse holds inf
        with pytest.raises(SingularMatrix):
            Automorphism.from_matrix(matrix)

    @pytest.mark.parametrize("offset", [[0.7], [0.0, 0.0, 0.0], [[1.0, 2.0]]])
    def test_from_matrix_rejects_offset_of_wrong_shape(self, offset):
        with pytest.raises(DimensionMismatch):
            Automorphism.from_matrix(np.eye(2), offset)

    @pytest.mark.parametrize("offset", [None, [0.0, 0.0], [-0.0, 0.0], [0.5, -1.2]])
    @pytest.mark.parametrize("layout", ["C", "F", "strided columns", "strided rows"])
    def test_from_matrix_inverse_equals_copy_then_product(self, offset, layout):
        # the inverse takes a copy only to subtract an offset that is not all
        # +0.0; either way its bits are those of the product on a C-ordered
        # copy, on a size that splits into row blocks too, and X is untouched
        M = np.array([[0.7, -0.9], [0.4, 1.3]])
        b = np.zeros(2) if offset is None else np.array(offset)
        rows = stream(61, 0).normal(size=(2 * 70_001, 4))
        rows[:3, :] = [[0.0, -0.0, np.nan, np.inf], [-0.0, -0.0, -np.inf, 0.0], [np.nan, 1.0, -0.0, 2.0]]
        X = {"C": np.ascontiguousarray(rows[:70_001, :2]),
             "F": np.asfortranarray(rows[:70_001, :2]),
             "strided columns": rows[:70_001, 1:3],
             "strided rows": rows[::2, :2]}[layout]
        before = rows.tobytes(), X.tobytes()
        got = Automorphism.from_matrix(M, offset).inverse(X)
        want = _matmul_rows(_add_offset(np.array(X), -b), np.linalg.inv(M).T)
        assert got.tobytes() == want.tobytes()
        assert (rows.tobytes(), X.tobytes()) == before

    def test_identity(self, rng):
        auto = Automorphism.identity(3)
        z = rng.normal(size=(10, 3))
        assert_allclose(auto.forward(z), z, atol=0)

    def test_inverted_swaps_directions(self, rng):
        M = np.array([[2.0, 0.0], [1.0, 0.5]])
        auto = Automorphism.from_matrix(M)
        z = rng.normal(size=(12, 2))
        assert_allclose(auto.inverted().forward(z), auto.inverse(z), atol=1e-12)
        assert_allclose(auto.inverted().inverse(z), auto.forward(z), atol=1e-12)
        # the inverse's log-det is log|det M^-1| = -log|det M|
        scaled = Automorphism.from_matrix(3.0 * M)
        assert_allclose(scaled.inverted().log_det_jacobian(z), np.full(12, -np.log(9.0)), rtol=0, atol=1e-15)

    def test_pointwise_map_has_no_log_det(self):
        cube = Automorphism(1, lambda z: z**3, np.cbrt)
        for auto in (cube, cube.inverted()):
            with pytest.raises(NotImplementedError):
                auto.log_det_jacobian(np.ones((3, 1)))

    def test_linear_log_det_is_constant(self):
        auto = Automorphism.from_matrix(np.array([[0.0, -2.0], [1.5, 0.0]]))
        assert_allclose(auto.log_det_jacobian(np.zeros((4, 2))), np.full(4, np.log(3.0)), rtol=1e-15)
        assert_allclose(auto.log_det_jacobian(np.ones((1, 2))), [np.log(3.0)], rtol=1e-15)


def _row_takers():
    """Each map and law in d = 2, with the methods that take points."""
    gauss = GaussianDistribution([0.0, 0.5], [[1.0, 0.3], [0.3, 2.0]])
    product = ProductDistribution([Laplace1D(), GaussianMixture1D([0.4, 0.6], [-1.0, 1.0], [0.5, 1.0])])
    affine = AffineMap([[2.0, 0.0], [0.7, 1.5]], [1.0, -2.0])
    rotation = Automorphism.from_matrix([[0.0, -1.0], [1.0, 0.0]])
    maps = ("forward", "inverse", "log_det_jacobian")
    laws = ("log_density", "rosenblatt", "inverse_rosenblatt")
    return {
        "AffineMap": (affine, maps),
        "CdfChainMap": (CdfChainMap(product, gauss), maps),
        "ComposedMap": (ComposedMap([affine, CdfChainMap(gauss, product)]), maps),
        "Automorphism": (rotation, maps),
        "GaussianDistribution": (gauss, laws),
        "ProductDistribution": (product, laws),
        "ExpFamily": (ExpFamily.gaussian_mean_family([0.5, -1.0]), laws),
        "TransportedDistribution": (TransportedDistribution(gauss, rotation), ("log_density",)),
    }


@pytest.mark.parametrize("name", sorted(_row_takers()))
def test_points_are_rows_only(name):
    # (n, d) rows in, arrays out; a (d,) point is not broadcast
    obj, methods = _row_takers()[name]
    for method in methods:
        assert getattr(obj, method)(np.zeros((1, 2))).shape[0] == 1
        with pytest.raises(DimensionMismatch):
            getattr(obj, method)(np.zeros(2))


def test_kr_rejects_dimension_mismatch(gauss2):
    with pytest.raises(DimensionMismatch):
        kr_transport(gauss2, GaussianDistribution([0.0], [[1.0]]))


def test_kr_rejects_unknown_method(gauss2):
    # "auto" already returns the closed-form map for a Gaussian pair
    with pytest.raises(ValueError, match="unknown method"):
        kr_transport(gauss2, gauss2, method="affine")


def test_interdecile_box_covers_bulk(gauss2, rng):
    box = interdecile_box(gauss2)
    x = gauss2.sample(rng, 4000)
    inside = np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=1)
    # 80% per coordinate, a bit less jointly
    assert 0.55 < inside.mean() < 0.75


_ROW_PRODUCT_PROBE = """
import time
import numpy as np
from idlab import AffineMap, Automorphism, GaussianDistribution, stream

rng = stream(25, 0)
A = rng.normal(size=(8, 8)) + 3.0 * np.eye(8)
gauss = GaussianDistribution(rng.normal(size=8), A @ A.T)
amap = AffineMap(np.tril(A), rng.normal(size=8))
auto = Automorphism.from_matrix(A, rng.normal(size=8))
# OpenBLAS starts its workers when numpy loads, and they spin for a while
time.sleep(0.3)
process, thread = time.process_time(), time.thread_time()
z = gauss.sample(rng, 10_000)
auto.inverse(auto.forward(amap.forward(z)))
time.sleep(0.3)
thread = time.thread_time() - thread
print(time.process_time() - process - thread)
"""


def test_row_products_leave_blas_threads_idle():
    # a (10^4, 8) @ (8, 8) product handed to OpenBLAS whole wakes a worker
    # that spins ~0.13 s of CPU after a sub-millisecond product; the maps
    # take their row products in blocks that stay on the calling thread
    proc = subprocess.run([sys.executable, "-c", _ROW_PRODUCT_PROBE],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    others_s = float(proc.stdout.strip().splitlines()[-1])
    assert others_s < 0.025, others_s
