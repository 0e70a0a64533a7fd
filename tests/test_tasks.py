"""Downstream tasks and their invariance to equivalence transforms."""

import json
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from idlab import (
    Automorphism,
    Distribution,
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
from idlab.experiments import ExperimentResult, check_params
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
        self.task = latent_shift_task(1.0, 0, 2)
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
        # the factory checks the coordinate against the latent dimension
        with pytest.raises(ValueError, match="k must be 0 or 1, got 5"):
            latent_shift_task(1.0, 5, 2)


class _OpaqueNormal(Distribution):
    """A 2-D standard normal density with no marginal quantiles to grid on."""

    dim = 2

    def log_density(self, z):
        return GaussianDistribution(np.zeros(2), np.eye(2)).log_density(z)

    def rosenblatt(self, X):
        raise NotImplementedError

    inverse_rosenblatt = rosenblatt

    def sample(self, rng, n):
        raise NotImplementedError


class TestTaskIdentifiabilityCheck:
    def setup_method(self):
        self.prior = GaussianDistribution([0.0, 0.0], np.eye(2))
        self.theta = ModelParams(LinearGenerator(EMBED), self.prior)
        self.task = latent_shift_task(1.0, 0, 2)
        self.obs = np.array([[1.0, 0.0, 0.0]])

    def test_identity_only_class_is_identifiable(self):
        rep = task_identifiability_check(
            self.task, self.theta, [Automorphism.identity(2)], self.obs, tol=1e-9
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
        )
        assert not rep.identifiable
        assert rep.max_distance == pytest.approx(SQRT2, abs=1e-9)

    def test_uncertified_transform_is_rejected(self):
        # a pure translation does not preserve any probability prior
        shift = Automorphism.from_matrix(np.eye(2), np.array([2.0, 0.0]))
        with pytest.raises(UncertifiedTransform):
            task_identifiability_check(
                self.task, self.theta, [shift], self.obs, tol=1e-9
            )

    def test_twisted_model_is_walked_again(self):
        # a twisted model's prior is a TransportedDistribution; its probes are
        # the base grid pushed through the quarter turn
        twisted = act_on_params(Automorphism.from_matrix(ROT90), self.theta)
        rep = task_identifiability_check(
            self.task, twisted, [Automorphism.identity(2), Automorphism.from_matrix(ROT90)],
            self.obs, tol=1e-9)
        assert rep.distances[0] == 0.0
        assert rep.max_distance == pytest.approx(SQRT2, abs=1e-9)
        shift = Automorphism.from_matrix(np.eye(2), np.array([2.0, 0.0]))
        with pytest.raises(UncertifiedTransform, match="does not preserve"):
            task_identifiability_check(self.task, twisted, [shift], self.obs, tol=1e-9)

    def test_prior_without_a_grid_is_refused(self):
        theta = ModelParams(LinearGenerator(EMBED), _OpaqueNormal())
        for model in (theta, act_on_params(Automorphism.from_matrix(ROT90), theta)):
            with pytest.raises(UncertifiedTransform, match="no grid"):
                task_identifiability_check(
                    self.task, model, [Automorphism.identity(2)], self.obs, tol=1e-9)

    def test_report_serialises(self):
        rep = task_identifiability_check(
            self.task, self.theta, [Automorphism.identity(2)], self.obs, tol=1e-9
        )
        doc = json.loads(_to_json(asdict(rep)))
        assert doc["identifiable"] is True and doc["distances"] == [0.0]
        assert doc["base_output"] == rep.base_output.tolist()


def _certify(prior, transform):
    """Run the latent-shift task's check on one transform of ``prior``."""
    d = prior.dim
    theta = ModelParams(LinearGenerator(np.eye(d)), prior)
    task = latent_shift_task(1.0, 0, d)
    return task_identifiability_check(task, theta, [transform], np.ones((1, d)), tol=1e-9)


@st.composite
def orthogonal_matrices(draw):
    """The orthogonal factor of a d x d matrix, d <= 4."""
    d = draw(st.integers(1, 4))
    a = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)), (d, d))
    return np.linalg.qr(a)[0]


@st.composite
def signed_permutations(draw):
    d = draw(st.integers(1, 4))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)))
    return np.eye(d)[draw(st.permutations(range(d)))] * signs[:, None]


@settings(max_examples=50, deadline=None)
@given(q=orthogonal_matrices(), shift=st.floats(0.1, 3.0))
def test_standard_gaussian_certifies_exactly_its_orthogonal_maps(q, shift):
    d = len(q)
    prior = GaussianDistribution(np.zeros(d), np.eye(d))
    assert _certify(prior, Automorphism.from_matrix(q)).distances
    # an offset, a scale and a map without a log-det are all refused
    for refused in (Automorphism.from_matrix(q, shift * q[0]), Automorphism.from_matrix(1.1 * q),
                    Automorphism(d, lambda z: z @ q.T, lambda x: x @ q)):
        with pytest.raises(UncertifiedTransform):
            _certify(prior, refused)


@settings(max_examples=50, deadline=None)
@given(perm=signed_permutations(), scale=st.floats(0.2, 3.0))
def test_laplace_product_certifies_signed_permutations_not_a_rotation(perm, scale):
    d = len(perm)
    prior = ProductDistribution([Laplace1D(0.0, scale) for _ in range(d)])
    assert _certify(prior, Automorphism.from_matrix(perm)).distances
    if d >= 2:
        turn = np.eye(d)
        turn[:2, :2] = [[SQRT2 / 2, -SQRT2 / 2], [SQRT2 / 2, SQRT2 / 2]]
        with pytest.raises(UncertifiedTransform):
            _certify(prior, Automorphism.from_matrix(turn @ perm))


@pytest.mark.parametrize("name, seed", [("task-indep", s) for s in (9, 33, 40, 53, 144, 164)]
                         + [("task-shift", 113)])
def test_exact_transforms_certify_on_every_seed(name, seed):
    # a KS test at level 0.01 on 2,048 draws rejects the exact sign flip or
    # quarter turn on these seeds; the density identity draws nothing
    assert isinstance(check_params(name, {})(seed), ExperimentResult)


class TestIndependenceTask:
    def setup_method(self):
        self.prior = ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.0, 1.0)])
        gen = LinearGenerator(np.array([[1.0, 0.0], [0.6, 1.0]]))
        self.theta = ModelParams(gen, self.prior)

    def test_requires_minimum_rows(self):
        with pytest.raises(ValueError):
            independence_test_task((0, 1), 10, 2)

    def test_pair_must_index_the_coordinates(self):
        with pytest.raises(ValueError, match="pair entries must be 0 or 1, got 2"):
            independence_test_task((0, 2), 400, 2)

    def test_componentwise_flip_leaves_statistic_unchanged(self):
        task = independence_test_task((0, 1), 400, 2)
        obs = self.theta.generator.forward(self.prior.sample(stream(63, 0), 400))
        flip = Automorphism.from_matrix(-np.eye(2))
        rep = task_identifiability_check(
            task, self.theta, [flip], obs, tol=1e-12
        )
        # rank statistics are exactly invariant under coordinatewise sign flips
        assert rep.identifiable
        assert rep.max_distance == 0.0

    def test_statistic_detects_dependence(self):
        task = independence_test_task((0, 1), 400, 2)
        z = self.prior.sample(stream(63, 2), 400)
        obs = self.theta.generator.forward(z)
        base = task.evaluate(self.theta, obs, task.select(self.theta, obs))
        # observation coordinate 0 equals latent coordinate 0: dependence is strong
        dependent = independence_test_task((0, 0), 400, 2)
        strong = dependent.evaluate(self.theta, obs, dependent.select(self.theta, obs))
        assert strong > 0.8
        assert base < 0.2
