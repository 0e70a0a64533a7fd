"""Configuration-driven command line for the experiment registry.

Three subcommands: ``run`` executes one experiment (or all of them) from a
JSON config and writes machine-readable artifacts, ``list`` prints the
registry, ``schema`` prints the config schema with per-experiment defaults
and CSV columns.  Exit codes: 0 all pass-conditions hold, 1 a claim check
failed (artifacts still written), 2 usage or configuration error, 3 a
numerical failure (an ``IdlabError``, such as a non-finite result) inside an
experiment's run; ``run`` writes nothing on 2 or 3, as it runs every
experiment before writing any.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .errors import IdlabError
from .experiments import EXPERIMENTS, check_params

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "experiment runner configuration",
    "type": "object",
    "required": ["experiment"],
    "additionalProperties": False,
    "properties": {
        "experiment": {
            "type": "string",
            "description": "registered experiment name, or 'all'",
        },
        # the Philox key is two uint64 words: the seed and a stream id
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1,
                 "default": 7},
        "params": {
            "type": "object",
            "description": ("experiment-specific overrides; for 'all', a "
                            "mapping from experiment name to its overrides"),
            "default": {},
        },
        "out_dir": {"type": "string", "default": "results"},
        "jobs": {"type": "integer", "minimum": 1, "default": 1},
    },
}


def _to_jsonable(obj):
    if isinstance(obj, (np.ndarray, np.bool_, np.integer, np.floating)):
        return obj.tolist()  # numpy scalars come back as Python scalars
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _to_json(obj) -> str:
    """The text every JSON artifact is written as."""
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=_to_jsonable) + "\n"


def _dump_json(path: str, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(_to_json(obj))
    os.replace(tmp, path)


def _csv_cell(v):
    if isinstance(v, (np.bool_, bool)):
        return "True" if v else "False"
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, columns, rows):
    lines = [[_csv_cell(row.get(c, "")) for c in columns] for row in rows]
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(lines)
    os.replace(tmp, path)


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _reject_constant(name: str):
    raise ValueError(f"config holds the non-finite number {name}")


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc


#: Python type of each JSON Schema type that ``CONFIG_SCHEMA`` uses
_TYPES = {"string": str, "integer": int, "object": dict}


def _schema_error(value, rule: dict, where: str = "config"):
    """Why ``value`` breaks ``rule``, a node of ``CONFIG_SCHEMA``, or None.
    Types match exactly, as in ``check_params``: an integer is an int, not a
    bool or an integral float."""
    want = _TYPES[rule["type"]]
    if type(value) is not want:
        return f"{where} must be of type {want.__name__}, got {value!r}"
    if "minimum" in rule and value < rule["minimum"]:
        return f"{where} must be >= {rule['minimum']}, got {value}"
    if "maximum" in rule and value > rule["maximum"]:
        return f"{where} must be <= {rule['maximum']}, got {value}"
    if want is not dict:
        return None
    missing = [key for key in rule.get("required", ()) if key not in value]
    if missing:
        return f"{where} lacks the key {missing[0]!r}"
    properties = rule.get("properties", {})
    unknown = sorted(set(value) - set(properties))
    if unknown and rule.get("additionalProperties") is False:
        return f"{where} has unknown keys {unknown}"
    for key, sub in properties.items():
        error = _schema_error(value[key], sub, key) if key in value else None
        if error:
            return error
    return None


def _validate_config(config) -> dict:
    """Check a config, flags merged in; map each experiment to run to its
    overrides and to the ``run(seed)`` its setup returned.

    Every experiment's setup runs here, so a bad entry rejects the run
    before any experiment starts.
    """
    error = _schema_error(config, CONFIG_SCHEMA)
    if error:
        raise ValueError(f"config rejected: {error}")
    name = config["experiment"]
    params = config.get("params", {})
    if name == "all":
        unknown = sorted(set(params) - set(EXPERIMENTS))
        if unknown:
            raise ValueError(f"params name unknown experiments: {unknown}")
        plan = {n: params.get(n, {}) for n in EXPERIMENTS}
    elif name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment: {name!r}")
    else:
        plan = {name: params}
    return {exp_name: (overrides, check_params(exp_name, overrides))
            for exp_name, overrides in plan.items()}


def _write_experiment_artifacts(out_dir, result, echo):
    exp_dir = os.path.join(out_dir, result.name)
    tables = os.path.join(exp_dir, "tables")
    os.makedirs(tables, exist_ok=True)
    _dump_json(os.path.join(exp_dir, "config.echo.json"), echo)
    payload = asdict(result)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _dump_json(os.path.join(exp_dir, "results.json"), payload)
    _write_csv(os.path.join(tables, f"{result.name}.csv"),
               result.columns, result.rows)


def _cmd_run(args) -> int:
    flags = {"seed": args.seed, "jobs": args.jobs, "out_dir": args.out}
    try:
        config = _load_config(args.config)
        if type(config) is dict:  # any other value fails the check
            config.update((k, v) for k, v in flags.items() if v is not None)
        plan = _validate_config(config)
    except ValueError as exc:
        return _fail(str(exc))

    name = config["experiment"]
    seed = config.get("seed", 7)
    jobs = config.get("jobs", 1)
    out_dir = config.get("out_dir", "results")

    # each experiment draws only from its own streams, so the pool's size
    # and order cannot change a result
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {exp_name: pool.submit(run, seed)
                   for exp_name, (_, run) in plan.items()}
    results = {}
    for exp_name, future in futures.items():
        try:
            results[exp_name] = future.result()
        except IdlabError as exc:  # numerical failure, before any artifact
            return _fail(f"{exp_name}: {exc}", code=3)

    statuses = {}
    for exp_name, result in results.items():
        echo = {"experiment": exp_name, "seed": seed, "jobs": jobs,
                "params": {**EXPERIMENTS[exp_name].defaults,
                           **plan[exp_name][0]},
                "out_dir": out_dir}
        try:
            _write_experiment_artifacts(out_dir, result, echo)
        except OSError as exc:
            return _fail(f"cannot write artifacts: {exc}")
        statuses[exp_name] = result.passed
        print(f"{exp_name}: {'pass' if result.passed else 'FAIL'}")

    if name == "all":
        _dump_json(os.path.join(out_dir, "results.json"),
                   {"experiments": statuses,
                    "passed": all(statuses.values()),
                    "timestamp": datetime.now(timezone.utc).isoformat()})
    return 0 if all(statuses.values()) else 1


def _cmd_list(args) -> int:
    if args.json:
        print(json.dumps([{"name": n, "anchor": spec.anchor}
                          for n, spec in EXPERIMENTS.items()], indent=2))
        return 0
    width = max(map(len, EXPERIMENTS))
    for n, spec in EXPERIMENTS.items():
        print(f"{n:<{width}}  {spec.anchor}")
    return 0


def _cmd_schema(args) -> int:
    schema = dict(CONFIG_SCHEMA)
    schema["x-experiments"] = {
        n: {"anchor": spec.anchor, "defaults": spec.defaults,
            "csv_columns": spec.columns}
        for n, spec in EXPERIMENTS.items()}
    print(json.dumps(schema, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idlab",
        description="identifiability experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out", default=None,
                       help="override the config output directory")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="experiments run concurrently "
                            "(overrides the config's jobs)")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list registered experiments")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable output")
    list_p.set_defaults(func=_cmd_list)

    schema_p = sub.add_parser("schema", help="print the config JSON schema")
    schema_p.set_defaults(func=_cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
