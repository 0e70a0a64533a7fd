"""Linear generator algebra: counterexamples, multi-environment uniqueness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from idlab import (
    AffineMap,
    Automorphism,
    ComonReport,
    LinearGenerator,
    comon_structure_check,
    generator_transform,
    kernel_residual,
    rotation_counterexample,
    solve_multi_env_linear,
)
from idlab.errors import (DegenerateMeans, DimensionMismatch, RangeMismatch, RankDeficient,
                          SingularMatrix)
from idlab.linear import _svd_rank

EMBED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_generator_forward_inverse_roundtrip(rng):
    gen = LinearGenerator(EMBED, np.array([0.5, -0.5, 1.0]))
    z = rng.normal(size=(40, 2))
    assert_allclose(gen.inverse(gen.forward(z)), z, atol=1e-12)


def test_range_residual():
    # the transform into gen's latents exists only where gen_a's outputs lie
    # on gen's range: an offset off the x1-x2 plane leaves a round-trip residual
    gen = LinearGenerator(EMBED)
    on = LinearGenerator(EMBED, np.array([1.0, 2.0, 0.0]))
    auto = generator_transform(on, gen)
    assert_allclose(auto.forward(np.zeros((1, 2))), [[1.0, 2.0]], rtol=0, atol=1e-12)
    off = LinearGenerator(EMBED, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(RangeMismatch):
        generator_transform(off, gen)


@pytest.mark.parametrize("make", [
    lambda: AffineMap(np.eye(2), [0.7]),
    lambda: LinearGenerator(np.eye(3)[:, :2], [0.1]),
], ids=["affine_map", "linear_generator"])
def test_offset_of_wrong_length_is_a_dimension_mismatch(make):
    with pytest.raises(DimensionMismatch):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: AffineMap([[np.nan]]), "matrix"),
    (lambda: AffineMap([[1.0, 0.0], [np.inf, 1.0]]), "matrix"),
    (lambda: AffineMap(np.eye(2), [np.nan, 0.0]), "offset"),
    (lambda: Automorphism.from_matrix([[np.nan, 0.0], [0.0, 1.0]]), "matrix"),
    (lambda: Automorphism.from_matrix(np.eye(2), [0.0, -np.inf]), "offset"),
    (lambda: LinearGenerator(np.eye(2), [np.nan, 0.0]), "offset"),
], ids=["affine_matrix", "affine_matrix_inf", "affine_offset", "automorphism_matrix",
        "automorphism_offset", "linear_generator_offset"])
def test_non_finite_map_parameters_are_a_numerical_error(make, name):
    # a fit can build such a map mid-run, so it is an IdlabError, as for a loading
    with pytest.raises(SingularMatrix, match=name):
        make()


@pytest.mark.parametrize("loading", [np.zeros((3, 0)), np.zeros((0, 2)), []], ids=["no_columns", "no_rows", "empty_list"])
def test_empty_loading_is_a_dimension_mismatch(loading):
    with pytest.raises(DimensionMismatch, match="loading"):
        LinearGenerator(loading)


@pytest.mark.parametrize("method, shape", [
    ("forward", (3, 3)), ("forward", (3,)), ("forward", (2, 3, 2)), ("forward", ()),
    ("inverse", (3, 4)), ("inverse", (2,)), ("inverse", (2, 3, 3)),
])
def test_points_of_the_wrong_width_are_a_dimension_mismatch(method, shape):
    # points are (n, d) rows, as for every latent map and law; one point is one row
    gen = LinearGenerator(EMBED, np.array([0.5, -0.5, 1.0]))
    with pytest.raises(DimensionMismatch, match=r"expected \(n, \d\) rows"):
        getattr(gen, method)(np.ones(shape))


@pytest.mark.parametrize("ratio", [1e-9, 1e-7])
def test_rank_checks_share_one_cutoff(ratio):
    # the second singular value falls below the cutoff at 1e-9 and above it at 1e-7
    M = np.diag([1.0, ratio])
    kept = ratio > 1e-8
    assert _svd_rank(M) == 1 + kept
    if kept:
        LinearGenerator(M)
    else:
        with pytest.raises(RankDeficient):
            LinearGenerator(M)
    # the residual sees the second coordinate's move only if it is in the row space
    shift = Automorphism.from_matrix(np.eye(2), [0.0, 1.0])
    residual = kernel_residual(lambda Z: Z, shift, M, np.zeros((1, 2)))
    assert residual == (1.0 if kept else 0.0)


@pytest.mark.parametrize("M", [np.zeros((0, 2)), np.zeros((2, 2))], ids=["empty", "all_zero"])
def test_rank_of_an_empty_or_zero_spectrum_is_zero(M):
    assert _svd_rank(M) == 0
    assert kernel_residual(lambda Z: Z, Automorphism.identity(2), M, np.ones((3, 2))) == 0.0


@pytest.mark.parametrize("loading, error", [
    ([[1.0, 0.0], [2.0, 0.0]], RankDeficient),
    ([[1.0, 0.0], [float("nan"), 1.0]], SingularMatrix),
], ids=["rank_deficient", "non_finite"])
def test_unusable_loading_is_a_numerical_error(loading, error):
    # a fit can produce such a loading mid-run, so it is an IdlabError
    with pytest.raises(error, match="loading"):
        LinearGenerator(loading)


def test_rotation_counterexample_oracle():
    gen = LinearGenerator(EMBED)
    mu1, mu2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    other, R = rotation_counterexample(mu1, mu2, gen)

    # frozen construction: reflection across span(mu2 - mu1)
    assert_allclose(R, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)
    assert_allclose(other.loading, [[0.0, -1.0], [-1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    assert_allclose(other.offset, [1.0, 1.0, 0.0], atol=1e-14)

    # observation moments coincide on both environments...
    for mu in (mu1, mu2):
        assert_allclose(gen.forward(mu[None, :]), other.forward(mu[None, :]), atol=1e-14)
    assert_allclose(gen.loading @ gen.loading.T, other.loading @ other.loading.T, atol=1e-14)
    # ...while the loadings differ by a fixed margin
    assert float(np.linalg.norm(gen.loading - other.loading)) == pytest.approx(2.0, abs=1e-12)


def test_rotation_counterexample_rejects_equal_means():
    gen = LinearGenerator(EMBED)
    with pytest.raises(DegenerateMeans):
        rotation_counterexample(np.array([1.0, 1.0]), np.array([1.0, 1.0]), gen)


def test_rotation_counterexample_needs_latent_dim_two():
    gen = LinearGenerator(np.eye(3))
    with pytest.raises(DimensionMismatch):
        rotation_counterexample(np.zeros(3), np.ones(3), gen)


class TestMultiEnvUniqueness:
    def test_two_environments_leave_slack(self):
        gen = LinearGenerator(EMBED)
        rep = solve_multi_env_linear(gen, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert not rep.unique
        assert rep.contrast_rank == 1

    def test_spanning_environments_pin_the_loading(self):
        gen = LinearGenerator(EMBED, np.array([0.1, 0.2, 0.3]))
        means = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rep = solve_multi_env_linear(gen, means)
        assert rep.unique
        assert rep.contrast_rank == 2
        assert rep.deviation < 1e-8

    def test_redundant_environments_still_unique(self):
        gen = LinearGenerator(EMBED)
        means = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        assert solve_multi_env_linear(gen, means).unique

    def test_one_environment_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_multi_env_linear(LinearGenerator(EMBED), np.array([[1.0, 0.0]]))


class TestComonStructure:
    def test_scaled_permutation_passes(self):
        rep = comon_structure_check(np.array([[0.0, 2.0], [-1.5, 0.0]]))
        assert isinstance(rep, ComonReport)
        assert rep.component_wise

    def test_diagonal_passes(self):
        assert comon_structure_check(np.diag([0.5, -3.0])).component_wise

    def test_rotation_fails(self):
        c, s = np.cos(0.3), np.sin(0.3)
        assert not comon_structure_check(np.array([[c, -s], [s, c]])).component_wise

    def test_tolerance_absorbs_noise(self, rng):
        M = np.diag([1.0, 2.0]) + 1e-8 * rng.normal(size=(2, 2))
        assert comon_structure_check(M, tol=1e-6).component_wise


def test_linear_generator_transform_oracle(rng):
    A = np.array([[1.0, 0.2], [0.0, 0.8]])
    gen_a = LinearGenerator(EMBED @ A)
    gen_b = LinearGenerator(EMBED)
    auto = generator_transform(gen_a, gen_b)
    # composing through observation space recovers the latent change of basis
    z = rng.normal(size=(20, 2))
    assert_allclose(auto.forward(z), z @ A.T, rtol=0, atol=1e-12)
    assert_allclose(auto.inverse(z), z @ np.linalg.inv(A).T, rtol=0, atol=1e-12)
    assert_allclose(gen_b.forward(auto.forward(z)), gen_a.forward(z), atol=1e-12)
