"""Per-layer spans recorded from outside the ``idlab`` package.

The tracer wraps public entry points of each module of ``idlab`` - a layer -
and records one span per call: name, start, end and parent.  Spans stay in
memory until the traced pass ends, when ``Tracer.metrics`` reduces them to
per-layer self times and work counts.  Methods are wrapped on every class of
the layer's module that defines them, so each subclass and each caller is
seen.  Functions are rebound under every name a module of the package looks
them up by.  ``uninstall`` restores every original, so only traced passes
pay for the wrappers.

Work counts (``*.rows``, ``*.calls``, ``*.bytes``) are computed from the
sizes of the arrays a call takes or returns, counted at the outermost span
of each name so a call nested in a call of the same name is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types

import numpy as np

#: layers in the order the report lists them; ``errors`` holds only
#: exception classes and does no work, and ``rng`` is counted, not timed
LAYERS = ("cli", "experiments", "envs", "measures", "transport",
          "indeterminacy", "linear", "tasks")


def _row_count(args, kwargs, result):
    """Rows of a returned (n, d) array; a single point counts as one."""
    return (1 if np.ndim(result) < 2 else int(np.shape(result)[0])), 0


def _value_count(args, kwargs, result):
    """Entries of a returned (n,) array; a scalar counts as one."""
    return int(np.size(result)), 0


def _density_bytes(args, kwargs, result):
    """Points in plus densities out, as float64 bytes."""
    points = np.asarray(args[1] if len(args) > 1 else kwargs["z"])
    rows = 1 if points.ndim < 2 else points.shape[0]
    return rows, 8 * (points.size + int(np.size(result)))


def _rows_for_bytes(args, kwargs, result):
    """Boolean mask over all rows plus the two selected copies."""
    data = args[0]
    x, z = result
    return int(x.shape[0]), int(data.env.size + x.nbytes + z.nbytes)


def _generated_rows(args, kwargs, result):
    return int(result.x.shape[0]), 0


def _written_bytes(args, kwargs, result):
    """Sizes of the files one experiment's artifacts occupy on disk."""
    out_dir, exp_result = args[0], args[1]
    total = 0
    for dirpath, _, files in os.walk(os.path.join(out_dir, exp_result.name)):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return 0, total


#: (layer, class that first defines the method, method, span, work counter)
METHOD_SPANS = (
    ("measures", "Distribution", "conditional_quantile", "measures.quantile",
     _value_count),
    ("measures", "Distribution", "conditional_cdf", "measures.cdf",
     _value_count),
    ("measures", "Distribution", "sample", "measures.sample", _row_count),
    ("measures", "Distribution", "log_density", "measures.density",
     _density_bytes),
    ("transport", "TriangularMap", "forward", "transport.forward", _row_count),
    ("transport", "TriangularMap", "inverse", "transport.inverse", _row_count),
    ("transport", "TriangularMap", "log_det_jacobian", "transport.log_det",
     _value_count),
    ("transport", "Automorphism", "forward", "transport.forward", _row_count),
    ("transport", "Automorphism", "inverse", "transport.inverse", _row_count),
    ("envs", "EnvironmentData", "rows_for", "envs.rows_for", _rows_for_bytes),
    ("linear", "LinearGenerator", "forward", "linear.forward", _row_count),
)

#: module functions with a named span; every other public function of a
#: layer gets the span ``<layer>.<function>`` and counts toward the layer
FUNCTION_SPANS = {
    "measures": {"sample": ("measures.sample", _row_count)},
    "transport": {"pushforward_check": ("transport.pushforward", None),
                  "jacobian_fd": ("transport.jacobian_fd", None),
                  "log_det_jacobian": ("transport.log_det", _value_count)},
    "envs": {"generate_environment_data": ("envs.generate", _generated_rows),
             "fit_env_affine_generator": ("envs.fit", None),
             "fit_gaussian_kr": ("envs.fit", None),
             "fit_marginal_quantile_transport": ("envs.fit", None),
             "affine_relation_fit": ("envs.fit", None),
             "validate_strong_vae_config": ("envs.validate", None)},
    "indeterminacy": {"generator_transform": ("indeterminacy.transform", None),
                      "identity_deviation": ("indeterminacy.identity_dev",
                                             None),
                      "indeterminacy_audit": ("indeterminacy.audit", None)},
    "tasks": {"task_identifiability_check": ("tasks.check", None)},
    "experiments": {"run_experiment": (
        lambda args, kwargs: "experiments." + (args[0] if args
                                               else kwargs["name"]), None)},
    # the CLI's only public function is ``main``; validation and artifact
    # writing are the private helpers ``_cmd_run`` looks up by name
    "cli": {"main": ("cli.main", None),
            "_validate_config": ("cli.validate", None),
            "_write_experiment_artifacts": ("cli.write", _written_bytes)},
}

#: per-layer metrics the traced run reports, besides the per-experiment
#: inclusive times and one ``<layer>.self_s`` total per layer
REPORTED = (
    "measures.quantile.self_s", "measures.quantile.rows",
    "measures.cdf.self_s", "measures.cdf.rows",
    "measures.cdf_per_quantile_row",
    "measures.sample.self_s", "measures.sample.rows",
    "measures.density.self_s", "measures.density.bytes",
    "transport.forward.self_s", "transport.forward.rows",
    "transport.inverse.self_s", "transport.inverse.rows",
    "transport.log_det.self_s", "transport.log_det.rows",
    "transport.pushforward.self_s", "transport.jacobian_fd.self_s",
    "transport.bracket_failures",
    "envs.generate.self_s", "envs.generate.rows",
    "envs.rows_for.self_s", "envs.rows_for.calls", "envs.rows_for.bytes",
    "envs.fit.self_s", "envs.validate.self_s",
    "indeterminacy.transform.self_s", "indeterminacy.identity_dev.self_s",
    "indeterminacy.audit.self_s",
    "linear.forward.self_s", "linear.forward.rows",
    "tasks.check.self_s",
    "cli.validate.self_s", "cli.write.self_s", "cli.write.bytes",
    "rng.streams",
)

#: the registered experiments ``idlab run`` with ``"all"`` executes; each
#: gets an inclusive time ``experiments.<name>.s``
EXPERIMENTS = ("kr-identity", "kr-gaussian", "ica-comon", "fa-rotation",
               "fa-three-env", "expfam-kernel", "strong-vae", "ivae-affine",
               "two-labs", "task-shift", "task-indep", "multiview")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in report order."""
    return (list(REPORTED) + [f"{layer}.self_s" for layer in LAYERS
                              if f"{layer}.self_s" not in REPORTED]
            + [f"experiments.{name}.s" for name in EXPERIMENTS]
            + ["trace.overhead_frac"])


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, as printed and as BENCHMARK.json has it."""
    if name.endswith(("_frac", "_per_quantile_row")):
        return "ratio"
    if name.endswith(("self_s", ".s")):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count that must repeat exactly."""
    return (name.endswith((".rows", ".calls", ".bytes"))
            or name in ("measures.cdf_per_quantile_row", "rng.streams",
                        "transport.bracket_failures"))


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Child intervals are clipped to the
    parent and merged before they are subtracted, so overlapping children
    are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((max(start, spans[c][0]), min(end, spans[c][1]))
                           for c in children[i]):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(max(0.0, (end - start) - covered))
    return out


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rows: list[int] = []
        self.bytes: list[int] = []
        self.outermost: list[bool] = []
        self.streams = 0
        self.bracket_failures = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._bracket_failure = None

    # -- recording ---------------------------------------------------------

    def _call(self, fn, name, work, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.rows.append(0)
        self.bytes.append(0)
        depth = self._depth.get(name, 0)
        self.outermost.append(depth == 0)
        self._depth[name] = depth + 1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._bracket_failure as exc:
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.bracket_failures += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] = depth
            self.starts[idx] = start
            self.ends[idx] = end
        if work is not None and depth == 0:
            self.rows[idx], self.bytes[idx] = work(args, kwargs, result)
        return result

    def _wrapper(self, fn, name, work):
        tracer = self
        if callable(name):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer._call(fn, name(args, kwargs), work, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer._call(fn, name, work, args, kwargs)
        return traced

    def _stream_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.streams += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Replace ``fn`` under every name a package module binds it to."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "idlab"
                                      or mod_name.startswith("idlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self):
        """Wrap every traced entry point of the already imported package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        errors = importlib.import_module("idlab.errors")
        self._bracket_failure = errors.BracketFailure
        for layer, base_name, method, span, work in METHOD_SPANS:
            module = importlib.import_module(f"idlab.{layer}")
            base = getattr(module, base_name)
            for cls in list(vars(module).values()):
                if not (isinstance(cls, type) and issubclass(cls, base)
                        and cls.__module__ == module.__name__):
                    continue
                fn = cls.__dict__.get(method)
                if (isinstance(fn, types.FunctionType)
                        and not getattr(fn, "__isabstractmethod__", False)):
                    self._patch(cls, method, self._wrapper(fn, span, work))
        for layer in LAYERS:
            module = importlib.import_module(f"idlab.{layer}")
            named = FUNCTION_SPANS.get(layer, {})
            for attr in sorted(set(getattr(module, "__all__", ())) | set(named)):
                fn = getattr(module, attr)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__):
                    continue
                span, work = named.get(attr, (f"{layer}.{attr}", None))
                self._rebind(fn, self._wrapper(fn, span, work))
        rng = importlib.import_module("idlab.rng")
        self._rebind(rng.stream, self._stream_counter(rng.stream))

    def uninstall(self):
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reducing ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        spans = list(zip(self.starts, self.ends, self.parents))
        own = self_times(spans)
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        rows: dict[str, int] = {}
        nbytes: dict[str, int] = {}
        calls: dict[str, int] = {}
        for i, name in enumerate(self.names):
            self_s[name] = self_s.get(name, 0.0) + own[i]
            if self.outermost[i]:
                inclusive[name] = (inclusive.get(name, 0.0)
                                   + self.ends[i] - self.starts[i])
                rows[name] = rows.get(name, 0) + self.rows[i]
                nbytes[name] = nbytes.get(name, 0) + self.bytes[i]
                calls[name] = calls.get(name, 0) + 1

        out: dict[str, float] = {}
        for metric in REPORTED:
            name, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s.get(name, 0.0)
            elif kind == "rows":
                out[metric] = rows.get(name, 0)
            elif kind == "bytes":
                out[metric] = nbytes.get(name, 0)
            elif kind == "calls":
                out[metric] = calls.get(name, 0)
        out["measures.cdf_per_quantile_row"] = self._cdf_rows_per_quantile_row()
        out["rng.streams"] = self.streams
        out["transport.bracket_failures"] = self.bracket_failures
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        for name in EXPERIMENTS:
            out[f"experiments.{name}.s"] = inclusive.get(f"experiments.{name}",
                                                         0.0)
        return out

    def _cdf_rows_per_quantile_row(self) -> float:
        """CDF rows evaluated inside quantile calls per quantile row."""
        quantile_rows = sum(r for n, r, o in zip(self.names, self.rows,
                                                 self.outermost)
                            if n == "measures.quantile" and o)
        if not quantile_rows:
            return 0.0
        inside = 0
        for i, name in enumerate(self.names):
            if name != "measures.cdf" or not self.outermost[i]:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != "measures.quantile":
                p = self.parents[p]
            if p >= 0:
                inside += self.rows[i]
        return inside / quantile_rows
