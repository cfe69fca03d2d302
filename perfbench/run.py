"""Benchmark entry point: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` next to this directory,
never from an installed copy.  Standard output ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
provenance record (code version, interpreter, machine, seed and workload
parameters).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run; either set must match
``BENCHMARK.json`` by name and unit, or the run exits with status 4.  A
workload whose guard fails exits with status 3 and prints no result; a
wrong output is counted in ``failed`` and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("distinct", "templated")


def _git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """SHA-256 over every file of ``src/`` (identifies code outside git too)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    import workloads

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": workloads.SETUP_REPS,
        "phase_shares": workloads.SHARES,
        "mining": workloads.MINING.to_dict(),
    }


def _manifest_mismatch(metrics: dict[str, tuple[float, str]], trace: bool) -> str | None:
    """How ``metrics`` differ from the manifest's list for this mode, if at all."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced == declared:
        return None
    missing = sorted(declared.keys() - produced.keys())
    extra = sorted(produced.keys() - declared.keys())
    units = sorted(n for n in declared.keys() & produced.keys() if declared[n] != produced[n])
    return f"missing {missing}, undeclared {extra}, wrong unit {units}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None:
        # String hashing fixed by the seed: set and dict orders inside the
        # program repeat from run to run.  exec replaces this process.
        hash_seed = str(args.seed % 2**32)
        if os.environ.get("PYTHONHASHSEED") != hash_seed:
            os.execve(
                sys.executable,
                [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                {**os.environ, "PYTHONHASHSEED": hash_seed},
            )

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    trace = bool(args.trace)
    try:
        outcome = workloads.run(
            args.seed,
            args.seconds,
            trace,
            templated=args.workload == "templated",
            workdir=workdir,
        )
    except workloads.GuardError as error:
        print(f"perfbench: guard failed: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if trace:
        outcome.put("failed_frac", outcome.failed / max(1, outcome.attempted), "ratio")
    mismatch = _manifest_mismatch(outcome.metrics, trace)
    if mismatch:
        print(f"perfbench: metrics do not match BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 4
    record = {**_provenance(args), **outcome.record}
    print(json.dumps({"record": record}, sort_keys=True))
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
