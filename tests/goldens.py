"""Golden copies of every ``results.json``, and the checks against them.

``tests/golden/`` holds what ``idlab run`` writes for
``{"experiment": "all", "seed": 7}``: each experiment's ``results.json`` as
``<experiment>.json`` and the run summary as ``all.json``, each with its
timestamp stripped, plus ``versions.json`` with the numpy and scipy versions
they were made with.  ``sweep.json`` pins seeds 0-199 of every experiment at
its defaults: one sha256 per experiment per block of 20 seeds, over each
seed's result as ``results.json`` holds it (no timestamp), with the text of
a numerical failure (exit 3) standing in for its result, and the numpy and
scipy versions.

    python tests/goldens.py regen
        rerun the suite from this checkout's ``src`` and rewrite the
        goldens, so a change of results shows in the diff; first print,
        for each golden that changes, every field that moved
    python tests/goldens.py check RESULTS GOLDEN
        compare one ``results.json`` with one golden within tolerance;
        exit 1 and print each mismatch if they differ
    python tests/goldens.py sweep
        rerun the seed sweep in process and rewrite ``sweep.json``; first
        print each experiment and seed block whose digest moved
    python tests/goldens.py check-sweep
        rerun the seed sweep and exit 1, printing each experiment and seed
        block whose digest differs from ``sweep.json``

The tolerance check compares bools, ints, strings and nulls exactly and
floats within ``1e-12 * max(1, |golden|)``.  Whole bytes are expected to
match only under the recorded numpy and scipy, since other builds of them
can differ in the last bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERSIONS = "versions.json"
SWEEP = "sweep.json"
SUITE_CONFIG = {"experiment": "all", "seed": 7}
RTOL = 1e-12
SWEEP_BLOCK = 20
SWEEP_BLOCKS = 10

_STAMP = re.compile(rb',\n *"timestamp": "[^"]*"')


def strip_timestamp(data: bytes) -> bytes:
    """``results.json`` bytes without the timestamp entry.

    The timestamp sorts last in every results file, so it goes with the
    comma before it and the rest keeps the writer's exact bytes.
    """
    out, n = _STAMP.subn(b"", data)
    if n != 1:
        raise ValueError(f"expected one timestamp entry, found {n}")
    return out


def collect(out_dir) -> dict:
    """Golden file name to stripped bytes, for every result of a suite run."""
    out_dir = Path(out_dir)
    runs = {}
    for path in sorted(out_dir.rglob("results.json")):
        rel = path.relative_to(out_dir)
        name = "all.json" if rel.parent == Path(".") else f"{rel.parent}.json"
        runs[name] = strip_timestamp(path.read_bytes())
    return runs


def golden_files() -> dict:
    """Golden file name to bytes, as committed."""
    return {p.name: p.read_bytes() for p in sorted(GOLDEN_DIR.glob("*.json"))
            if p.name not in (VERSIONS, SWEEP)}


def installed_versions() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def recorded_versions() -> dict:
    return json.loads((GOLDEN_DIR / VERSIONS).read_text())


def mismatches(got, want, where: str = "$", rtol: float = RTOL) -> list:
    """Where the decoded ``got`` differs from the decoded golden ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [m for k in sorted(want)
                for m in mismatches(got[k], want[k], f"{where}.{k}", rtol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]", rtol)]
    if type(got) is not type(want):
        return [f"{where}: {got!r} is not a {type(want).__name__}"]
    if got == want:
        return []
    if isinstance(want, float) and (
            (math.isnan(got) and math.isnan(want))
            or abs(got - want) <= rtol * max(1.0, abs(want))):
        return []
    return [f"{where}: {got!r} != golden {want!r}"]


def changes(runs: dict, old: dict) -> list:
    """One line per golden that ``runs`` adds or removes, per field it moves.

    A field moves when its value changes at all, even within tolerance.
    """
    lines = [f"{name}: removed" for name in sorted(set(old) - set(runs))]
    for name, data in sorted(runs.items()):
        if name not in old:
            lines.append(f"{name}: new")
        elif data != old[name]:
            found = mismatches(json.loads(data), json.loads(old[name]), rtol=0)
            lines += [f"{name} {m}" for m in found or ["$: bytes differ"]]
    return lines


def _import_checkout():
    """Put this checkout's ``src`` first on the import path."""
    sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))


def regen() -> None:
    """Run the suite from this checkout and rewrite every golden."""
    _import_checkout()
    from idlab.cli import main as idlab_main

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "all.json"
        cfg.write_text(json.dumps(SUITE_CONFIG))
        out = Path(tmp) / "out"
        code = idlab_main(["run", "--config", str(cfg), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"idlab run exited {code}; goldens not written")
        runs = collect(out)
    GOLDEN_DIR.mkdir(exist_ok=True)
    old = golden_files()
    for line in changes(runs, old):
        print(line)
    for stale in set(old) - set(runs):
        (GOLDEN_DIR / stale).unlink()
    for name, data in runs.items():
        (GOLDEN_DIR / name).write_bytes(data)
    (GOLDEN_DIR / VERSIONS).write_text(
        json.dumps(installed_versions(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} goldens to {GOLDEN_DIR}")


def sweep_digests(blocks=range(SWEEP_BLOCKS)) -> dict:
    """Experiment name to the sha256 of each of ``blocks``, in order.

    Block ``b`` hashes seeds ``20 b .. 20 b + 19`` in turn: each seed's
    result as ``idlab run`` writes it, timestamp aside, or the text ``idlab
    run`` prints for a numerical failure in its place.  Every experiment
    runs in process at its defaults, set up once.
    """
    from idlab.cli import _to_json
    from idlab.errors import IdlabError
    from idlab.experiments import EXPERIMENTS, check_params

    digests = {}
    for name in EXPERIMENTS:
        run = check_params(name, {})
        digests[name] = []
        for block in blocks:
            h = hashlib.sha256()
            for seed in range(block * SWEEP_BLOCK, (block + 1) * SWEEP_BLOCK):
                try:
                    text = _to_json(asdict(run(seed)))
                except IdlabError as exc:
                    text = f"{name}: {exc}\n"
                h.update(text.encode())
            digests[name].append(h.hexdigest())
    return digests


def recorded_sweep() -> dict:
    return json.loads((GOLDEN_DIR / SWEEP).read_text())


def sweep_changes(digests: dict, old: dict, blocks=range(SWEEP_BLOCKS)) -> list:
    """One line per experiment and seed block of ``blocks`` whose digest in
    ``digests`` (one entry per block) differs from the recorded ``old``."""
    lines = [f"{name}: removed" for name in sorted(set(old) - set(digests))]
    for name, got in digests.items():
        if name not in old:
            lines.append(f"{name}: new")
            continue
        lines += [f"{name}: seeds {b * SWEEP_BLOCK}-{(b + 1) * SWEEP_BLOCK - 1}"
                  f" moved" for b, g in zip(blocks, got) if g != old[name][b]]
    return lines


def sweep() -> None:
    """Rerun the seed sweep from this checkout and rewrite ``sweep.json``."""
    _import_checkout()
    digests = sweep_digests()
    if (GOLDEN_DIR / SWEEP).exists():
        for line in sweep_changes(digests, recorded_sweep()["digests"]):
            print(line)
    (GOLDEN_DIR / SWEEP).write_text(json.dumps(
        {"digests": digests, "seeds_per_block": SWEEP_BLOCK,
         **installed_versions()}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} x {SWEEP_BLOCKS} digests to "
          f"{GOLDEN_DIR / SWEEP}")


def check_sweep() -> int:
    _import_checkout()
    recorded = recorded_sweep()
    found = sweep_changes(sweep_digests(), recorded["digests"])
    for line in found:
        print(line)
    pinned = {k: recorded[k] for k in ("numpy", "scipy")}
    if found and pinned != installed_versions():
        print(f"the digests come from {pinned}, installed are "
              f"{installed_versions()}")
    print(f"seed sweep {'differs from' if found else 'matches'} "
          f"{GOLDEN_DIR / SWEEP}")
    return 1 if found else 0


def check(results_path, golden_path) -> int:
    got = json.loads(strip_timestamp(Path(results_path).read_bytes()))
    want = json.loads(Path(golden_path).read_bytes())
    found = mismatches(got, want)
    for line in found:
        print(line)
    print(f"{results_path}: {'differs from' if found else 'matches'} "
          f"{golden_path}")
    return 1 if found else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["regen"]:
        regen()
        return 0
    if len(argv) == 3 and argv[0] == "check":
        return check(argv[1], argv[2])
    if argv == ["sweep"]:
        sweep()
        return 0
    if argv == ["check-sweep"]:
        return check_sweep()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
