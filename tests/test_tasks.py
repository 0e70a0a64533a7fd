"""Downstream tasks and their invariance to equivalence transforms."""

import json
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from idlab import (
    Automorphism,
    GaussianDistribution,
    Laplace1D,
    LinearGenerator,
    ModelParams,
    ProductDistribution,
    TaskReport,
    abs_diff_metric,
    act_on_params,
    independence_test_task,
    latent_shift_task,
    spearman_abs,
    stream,
    sup_point_metric,
    task_identifiability_check,
)
from idlab.cli import _to_json
from idlab.tasks import _midranks
from idlab.errors import DimensionMismatch, UncertifiedTransform

EMBED = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
SQRT2 = float(np.sqrt(2.0))


def test_sup_point_metric_oracle():
    a = np.array([[2.0, 0.0, 0.0]])
    b = np.array([[1.0, -1.0, 0.0]])
    assert sup_point_metric(a, b) == SQRT2


def test_sup_point_metric_takes_worst_row():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    b = np.zeros((2, 2))
    assert sup_point_metric(a, b) == 5.0


def test_sup_point_metric_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        sup_point_metric(np.zeros((2, 2)), np.zeros((3, 2)))


def test_abs_diff_metric():
    assert abs_diff_metric(0.25, -0.5) == 0.75


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.array([0.1, 0.5, 2.0, 3.7])
        assert spearman_abs(x, np.exp(x)) == 1.0

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        want = abs(scipy.stats.spearmanr(x, y).statistic)
        assert spearman_abs(x, y) == pytest.approx(want, abs=1e-12)

    def test_flip_invariance_is_exact(self, rng):
        # reversal negates centered ranks term by term, so |rho| cannot move
        for _ in range(20):
            x, y = rng.normal(size=31), rng.normal(size=31)
            assert spearman_abs(x, -y) == spearman_abs(x, y)
            assert spearman_abs(-x, y) == spearman_abs(x, y)

    def test_ties_use_midranks(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0, 7.0])
        want = abs(scipy.stats.spearmanr(x, y).statistic)
        assert spearman_abs(x, y) == pytest.approx(want, abs=1e-12)

    def test_constant_input_returns_zero(self):
        assert spearman_abs(np.ones(10), np.arange(10.0)) == 0.0

    def test_midranks_equal_rankdata_bits(self, rng):
        cases = [np.array([]), np.array([3.0]), np.array([1.0, 1.0, 2.0, 3.0]),
                 np.array([2.0, -1.0, 2.0, 2.0, -1.0, 0.5]),
                 np.array([np.inf, -np.inf, 1.0, np.inf]), np.array([1.0, np.nan, 2.0])]
        for n in range(0, 400, 4):
            cases.append(rng.normal(size=n))
            cases.append(rng.integers(0, n // 3 + 1, n).astype(float))
        for a in cases:
            assert _midranks(a).tobytes() == scipy.stats.rankdata(a).tobytes()


class TestLatentShiftTask:
    """Worked example: embedding generator, exact quarter-turn indeterminacy."""

    def setup_method(self):
        self.prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        self.theta = ModelParams(LinearGenerator(EMBED), self.prior)
        self.task = latent_shift_task(1.0, 0)
        self.obs = np.array([[1.0, 0.0, 0.0]])

    def test_base_output(self):
        z = self.task.select(self.theta, self.obs)
        assert_allclose(z, [[1.0, 0.0]], atol=0)
        out = self.task.evaluate(self.theta, self.obs, z)
        assert_allclose(out, [[2.0, 0.0, 0.0]], atol=0)

    def test_quarter_turn_moves_output_by_sqrt2(self):
        moved = act_on_params(Automorphism.from_matrix(ROT90), self.theta)
        z = self.task.select(moved, self.obs)
        out = self.task.evaluate(moved, self.obs, z)
        base = self.task.evaluate(self.theta, self.obs, self.task.select(self.theta, self.obs))
        assert self.task.output_metric(base, out) == SQRT2

    def test_shift_coordinate_out_of_range(self):
        task = latent_shift_task(1.0, 5)
        z = task.select(self.theta, self.obs)
        with pytest.raises(DimensionMismatch):
            task.evaluate(self.theta, self.obs, z)


class TestTaskIdentifiabilityCheck:
    def setup_method(self):
        self.prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        self.theta = ModelParams(LinearGenerator(EMBED), self.prior)
        self.task = latent_shift_task(1.0, 0)
        self.obs = np.array([[1.0, 0.0, 0.0]])

    def test_identity_only_class_is_identifiable(self):
        rep = task_identifiability_check(
            self.task, self.theta, [Automorphism.identity(2)], self.obs, tol=1e-9, rng=stream(62, 0)
        )
        assert isinstance(rep, TaskReport)
        assert rep.identifiable
        assert rep.max_distance == 0.0

    def test_rotation_class_breaks_the_task(self):
        rep = task_identifiability_check(
            self.task,
            self.theta,
            [Automorphism.identity(2), Automorphism.from_matrix(ROT90)],
            self.obs,
            tol=1e-9,
            rng=stream(62, 1),
        )
        assert not rep.identifiable
        assert rep.max_distance == pytest.approx(SQRT2, abs=1e-9)

    def test_uncertified_transform_is_rejected(self):
        # a pure translation does not preserve any probability prior
        shift = Automorphism.from_matrix(np.eye(2), np.array([2.0, 0.0]))
        with pytest.raises(UncertifiedTransform):
            task_identifiability_check(
                self.task, self.theta, [shift], self.obs, tol=1e-9, rng=stream(62, 2)
            )

    def test_report_serialises(self):
        rep = task_identifiability_check(
            self.task, self.theta, [Automorphism.identity(2)], self.obs, tol=1e-9, rng=stream(62, 3)
        )
        doc = json.loads(_to_json(asdict(rep)))
        assert doc["identifiable"] is True and doc["distances"] == [0.0]
        assert doc["base_output"] == rep.base_output.tolist()


class TestIndependenceTask:
    def setup_method(self):
        self.prior = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.0, 1.0)])
        gen = LinearGenerator(np.array([[1.0, 0.0], [0.6, 1.0]]))
        self.theta = ModelParams(gen, self.prior)

    def test_requires_minimum_rows(self):
        with pytest.raises(ValueError):
            independence_test_task((0, 1), 10)

    def test_componentwise_flip_leaves_statistic_unchanged(self):
        task = independence_test_task((0, 1), 400)
        obs = self.theta.generator.forward(self.prior.sample(stream(63, 0), 400))
        flip = Automorphism.from_matrix(-np.eye(2))
        rep = task_identifiability_check(
            task, self.theta, [flip], obs, tol=1e-12, rng=stream(63, 1)
        )
        # rank statistics are exactly invariant under coordinatewise sign flips
        assert rep.identifiable
        assert rep.max_distance == 0.0

    def test_statistic_detects_dependence(self):
        task = independence_test_task((0, 1), 400)
        z = self.prior.sample(stream(63, 2), 400)
        obs = self.theta.generator.forward(z)
        base = task.evaluate(self.theta, obs, task.select(self.theta, obs))
        # observation coordinate 0 equals latent coordinate 0: dependence is strong
        dependent = independence_test_task((0, 0), 400)
        strong = dependent.evaluate(self.theta, obs, dependent.select(self.theta, obs))
        assert strong > 0.8
        assert base < 0.2
