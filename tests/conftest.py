import json
import time

import numpy as np
import pytest
from hypothesis import strategies as st

from idlab import (
    ExpFamily,
    GaussianDistribution,
    GaussianMixture1D,
    Laplace1D,
    Logistic1D,
    Normal1D,
    ProductDistribution,
    stream,
)
from idlab.cli import main as cli_main

from goldens import SUITE_CONFIG

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion after the test summary."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    """One timed ``idlab run`` of the whole suite at seed 7.

    Returns ``(exit code, seconds, out dir)``.  Criterion 11 repeats the run
    and the golden checks read its files, so a session runs the suite twice.
    """
    root = tmp_path_factory.mktemp("suite")
    cfg = root / "all.json"
    cfg.write_text(json.dumps(SUITE_CONFIG))
    t0 = time.perf_counter()
    code = cli_main(["run", "--config", str(cfg), "--out", str(root / "a")])
    return code, time.perf_counter() - t0, root / "a"


@pytest.fixture
def rng():
    """Fresh deterministic generator; same stream in every test that asks."""
    return stream(20240817, 0)


@pytest.fixture
def gauss2():
    return GaussianDistribution([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])


@pytest.fixture
def laplace_product():
    return ProductDistribution([Laplace1D(0.0, 1.0), Laplace1D(0.3, 1.3)])


def rng_state(rng):
    """The bit generator's state with its arrays as lists, so that two
    states compare with ``==``."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


def bisect_quantile(cdf, p):
    """Reference inverse of a vectorised monotone ``cdf`` by plain bisection.

    The bracket starts at [-1, 1] and doubles outward until it covers every
    ``p``, so it is at most 4 (1 + |v|) wide; 64 halvings then leave it at
    the resolution of a double, far inside 1e-9 (1 + |v|).
    """
    p = np.asarray(p, dtype=float)
    lo, hi = np.full(p.shape, -1.0), np.full(p.shape, 1.0)
    while np.any(cdf(lo) > p):
        lo = np.where(cdf(lo) > p, 2.0 * lo, lo)
    while np.any(cdf(hi) < p):
        hi = np.where(cdf(hi) < p, 2.0 * hi, hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < p
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def probe_grid(dim, half_width=3.0, per_axis=7):
    """Small cartesian grid used as deterministic probe points."""
    axes = [np.linspace(-half_width, half_width, per_axis)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@st.composite
def gaussian_laws(draw, dim=None):
    """Gaussian laws on R^d, d <= 4, with covariance A A^T + I / 2."""
    d = draw(st.integers(1, 4)) if dim is None else dim
    mean = draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    a = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)), (d, d))
    return GaussianDistribution(mean, a @ a.T + 0.5 * np.eye(d))


@st.composite
def product_laws(draw, dim=None, kinds=("normal", "laplace", "logistic")):
    """Products of d <= 4 marginals whose quantiles have closed forms."""
    d = draw(st.integers(1, 4)) if dim is None else dim
    marginals = []
    for _ in range(d):
        law = {"normal": Normal1D, "laplace": Laplace1D, "logistic": Logistic1D}[draw(st.sampled_from(kinds))]
        scale = draw(st.floats(0.2, 3.0))
        marginals.append(law(draw(st.floats(-3.0, 3.0)), scale))
    return ProductDistribution(marginals)


@st.composite
def gaussian_mean_families(draw):
    """Gaussian-mean exponential families on R^d, d <= 4, with |eta| <= 4."""
    d = draw(st.integers(1, 4))
    return ExpFamily.gaussian_mean_family(draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))


@st.composite
def gaussian_mixtures(draw, k=None):
    """Mixtures of ``k`` (default 1-3) normals with normalised positive weights."""
    k = draw(st.integers(1, 3)) if k is None else k
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    locs = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    scales = draw(st.lists(st.floats(0.2, 3.0), min_size=k, max_size=k))
    return GaussianMixture1D(weights / weights.sum(), locs, scales)
