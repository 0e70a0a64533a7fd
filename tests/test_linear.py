"""Linear generator algebra: counterexamples, multi-environment uniqueness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from idlab import (
    ComonReport,
    EnvConstraintSystem,
    LinearGenerator,
    comon_structure_check,
    generator_transform,
    rotation_counterexample,
    solve_multi_env_linear,
)
from idlab.errors import DegenerateMeans, DimensionMismatch

EMBED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_generator_forward_inverse_roundtrip(rng):
    gen = LinearGenerator(EMBED, np.array([0.5, -0.5, 1.0]))
    z = rng.normal(size=(40, 2))
    assert_allclose(gen.inverse(gen.forward(z)), z, atol=1e-12)


def test_range_residual():
    gen = LinearGenerator(EMBED)
    on = np.array([[1.0, 2.0, 0.0]])
    off = np.array([[1.0, 2.0, 3.0]])
    assert gen.range_residual(on) < 1e-12
    assert gen.range_residual(off) > 1.0


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
        rep = solve_multi_env_linear(gen, EnvConstraintSystem(np.array([[0.0, 0.0], [1.0, 0.0]])))
        assert not rep.unique
        assert rep.contrast_rank == 1

    def test_spanning_environments_pin_the_loading(self):
        gen = LinearGenerator(EMBED, np.array([0.1, 0.2, 0.3]))
        means = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rep = solve_multi_env_linear(gen, EnvConstraintSystem(means))
        assert rep.unique
        assert rep.contrast_rank == 2
        assert rep.deviation < 1e-8

    def test_redundant_environments_still_unique(self):
        gen = LinearGenerator(EMBED)
        means = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        assert solve_multi_env_linear(gen, EnvConstraintSystem(means)).unique


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
    M, c = generator_transform(gen_a, gen_b).linear_parts()
    # composing through observation space recovers the latent change of basis
    assert_allclose(M, A, atol=1e-12)
    assert_allclose(c, 0.0, atol=1e-12)
    z = rng.normal(size=(20, 2))
    assert_allclose(gen_b.forward(z @ M.T), gen_a.forward(z), atol=1e-12)
