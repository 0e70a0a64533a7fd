"""The three workloads: their inputs, one pass each, and its output checks.

Each workload builds its inputs from the benchmark seed in its constructor
(plain numbers and specs, so no object carries a cache from one pass into
the next) and runs one pass with ``run_pass``.  Every operation of a pass
is checked, and a failed check or a raised exception counts as one failed
operation in the ``Tally``.

Statistical checks the benchmark adds itself (the pushforward tests in
``transport`` and ``expfam``) run at level ``ALPHA = 1e-6`` rather than the
library default 0.01, so a correct map fails them about once in a million
checks instead of once in a hundred: a run at any seed must be able to pass,
and a false alarm would mark a correct program as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile

import numpy as np

import idlab
import idlab.cli

ALPHA = 1e-6

#: ``suite`` at tiny size: the registered config with sizes cut so the
#: twelve claims still hold at the registered seed in a few seconds
TINY_SUITE_PARAMS = {
    "kr-identity": {"n_probes": 100},
    "kr-gaussian": {"n_pairs": 3, "n_probes": 100},
    "strong-vae": {"n_seeds": 2, "n_per_env": 5000, "min_passes": 2},
    "ivae-affine": {"n_per_env": 5000},
    "two-labs": {"n": 20000},
}

_TIMESTAMP_LINE = re.compile(rb'^\s*"timestamp": .*\n', re.MULTILINE)


def results_digest(path: str) -> str:
    """SHA-256 of a ``results.json`` with its timestamp line removed."""
    with open(path, "rb") as fh:
        return hashlib.sha256(_TIMESTAMP_LINE.sub(b"", fh.read())).hexdigest()


class Suite:
    """``idlab run`` on ``{"experiment": "all"}`` through ``idlab.cli.main``.

    The config is the registered one, seed included: the claims are
    statistical tests at their own level 0.01, so some seeds fail a claim
    by design (seed 9 of seeds 0-29 fails task-indep), and the benchmark
    seed is not passed to the program.
    """

    name = "suite"

    def __init__(self, seed: int, tiny: bool, workdir: str, jobs: int = 1):
        self.workdir = workdir
        self.jobs = jobs
        config = {"experiment": "all"}
        if tiny:
            config["params"] = TINY_SUITE_PARAMS
        self.config_path = os.path.join(workdir, "suite-config.json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        self.reference: dict[str, str] | None = None

    def run_pass(self, tally) -> dict[str, str]:
        """One ``idlab run``; returns each results file's digest.

        Each experiment is one operation: it fails unless its claim held
        and its ``results.json`` matches the first pass byte for byte,
        timestamp aside.
        """
        out = tempfile.mkdtemp(prefix="suite-", dir=self.workdir)
        digests, passed = {}, {}
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = idlab.cli.main(["run", "--config", self.config_path,
                                       "--out", out, "--jobs", str(self.jobs)])
            for name in [*sorted(os.listdir(out)), ""]:
                path = os.path.join(out, name, "results.json")
                if os.path.isfile(path):
                    digests[name or "all"] = results_digest(path)
                    with open(path) as fh:
                        passed[name or "all"] = json.load(fh)["passed"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        reference = self.reference or digests
        for name in idlab.experiment_names():
            tally.check(f"suite {name}",
                        lambda: passed.get(name) is True
                        and digests.get(name) == reference.get(name))
        tally.check("suite exit code and summary",
                    lambda: code == 0 and passed.get("all") is True
                    and digests.get("all") == reference.get("all"))
        self.reference = reference
        return digests


def _draw_pair(rng: np.random.Generator, kind: str, d: int):
    """Source and target specs of one law pair, drawn from ``rng``."""
    if kind == "gaussian":
        def gaussian():
            a = 0.5 * rng.standard_normal((d, d))
            return {"kind": "gaussian", "mean": rng.standard_normal(d).tolist(),
                    "cov": (a @ a.T + 0.5 * np.eye(d)).tolist()}
        return gaussian(), gaussian()

    def product(kind_1d):
        return {"kind": "product", "marginals": [
            {"kind": kind_1d, "loc": float(rng.normal()),
             "scale": float(rng.uniform(0.5, 1.5))} for _ in range(d)]}

    if kind == "laplace_logistic":
        return product("laplace"), product("logistic")
    mixtures = []
    for _ in range(d):
        w = float(rng.uniform(0.3, 0.7))
        mixtures.append({"kind": "gaussian_mixture", "weights": [w, 1.0 - w],
                         "locs": [float(rng.uniform(-2.0, -0.5)),
                                  float(rng.uniform(0.5, 2.0))],
                         "scales": [float(rng.uniform(0.5, 1.0)),
                                    float(rng.uniform(0.5, 1.0))]})
    return {"kind": "product", "marginals": mixtures}, product("laplace")


class Transport:
    """Knothe-Rosenblatt maps built by the conditional-CDF chain.

    Three law pairs (a Gaussian pair, product Laplace to Logistic, product
    two-component Gaussian mixture to Laplace), each at d = 2, 4 and 8.
    The mixture has no closed-form quantile, so ``inverse`` there always
    inverts a CDF numerically.
    """

    name = "transport"
    KINDS = ("gaussian", "laplace_logistic", "mixture_laplace")
    DIMS = (2, 4, 8)
    ROUND_TRIP_TOL = 1e-9
    AFFINE_TOL = 1e-5
    #: the log-det is a central difference with step 1e-5: its error is
    #: O(step) where a row sits within a step of a Laplace kink, and grows in
    #: the far tails, where the quantile is solved to double precision in p;
    #: 18 of seeds 300-399 miss 1e-6, the worst by 6.1e-6
    LOG_DET_TOL = 1e-4

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.cases = [(kind, d) + _draw_pair(rng, kind, d)
                      for kind in self.KINDS for d in self.DIMS]
        self.n_rows, self.n_log_det, self.n_push = ((200, 50, 200) if tiny
                                                    else (10_000, 1_000, 2_000))

    def run_pass(self, tally):
        for i, (kind, d, src_spec, tgt_spec) in enumerate(self.cases):
            self._case(tally, i, f"transport {kind} d={d}", src_spec,
                       tgt_spec, kind == "gaussian")

    def _case(self, tally, i, label, src_spec, tgt_spec, gaussian):
        src = idlab.distribution_from_spec(src_spec)
        tgt = idlab.distribution_from_spec(tgt_spec)
        chain = idlab.kr_transport(src, tgt, method="cdf_chain")
        z = idlab.sample(src, idlab.stream(self.seed, 2 * i), self.n_rows)
        y = {}

        def round_trip():
            y["y"] = chain.forward(z)
            return (np.abs(chain.inverse(y["y"]) - z).max()
                    <= self.ROUND_TRIP_TOL)

        def matches_affine():
            closed = idlab.kr_transport(src, tgt)
            return np.abs(closed.forward(z) - y["y"]).max() <= self.AFFINE_TOL

        def log_det():
            zs, ys = z[:self.n_log_det], y["y"][:self.n_log_det]
            exact = src.log_density(zs) - tgt.log_density(ys)
            return (np.abs(chain.log_det_jacobian(zs) - exact).max()
                    <= self.LOG_DET_TOL)

        def pushforward():
            return idlab.pushforward_check(
                chain, src, tgt, self.n_push,
                idlab.stream(self.seed, 2 * i + 1), alpha=ALPHA).passed

        tally.check(f"{label} round trip", round_trip)
        if gaussian:
            tally.check(f"{label} matches affine", matches_affine)
        tally.check(f"{label} log-det", log_det)
        tally.check(f"{label} pushforward", pushforward)


class ExpFam:
    """Gaussian-mean exponential families at the strong-vae environments.

    ``ExpFamily`` inverts its conditionals by quadrature: the first
    conditional CDF tabulates a 4097 x 4097 density grid, and each bisection
    step of the second evaluates an n x 4097 density slab, so this workload
    is memory bound where ``transport`` is compute bound.
    """

    name = "expfam"
    #: strong-vae's registered means: radius 3, phases 15, 135, 255 degrees
    RADIUS, PHASES = 3.0, (15.0, 135.0, 255.0)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.etas = [[self.RADIUS * math.cos(math.radians(p)),
                      self.RADIUS * math.sin(math.radians(p))]
                     for p in self.PHASES]
        self.n_rows = 2 if tiny else 10

    def run_pass(self, tally):
        for k, eta in enumerate(self.etas):
            fam = idlab.distribution_from_spec(
                {"kind": "expfam", "family": "gaussian_mean", "eta": eta})
            tol = 5.0 / math.sqrt(self.n_rows)

            def sample_mean():
                z = idlab.sample(fam, idlab.stream(self.seed, 2 * k),
                                 self.n_rows)
                return (z.shape == (self.n_rows, 2)
                        and np.abs(z.mean(axis=0) - eta).max() <= tol)

            def pushforward():
                return idlab.pushforward_check(
                    idlab.AffineMap(np.eye(2)), fam, fam, self.n_rows,
                    idlab.stream(self.seed, 2 * k + 1), alpha=ALPHA).passed

            tally.check(f"expfam eta{k} sample mean", sample_mean)
            tally.check(f"expfam eta{k} pushforward", pushforward)


WORKLOADS = {w.name: w for w in (Suite, Transport, ExpFam)}
