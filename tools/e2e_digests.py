#!/usr/bin/env python3
"""Print the end-to-end benchmark's output digest per workload and seed.

Runs ``e2ebench/run.py`` of the tree this script sits in, one
subprocess per (workload, seed), and prints one line each::

    serve_unique 1 8850620f...

The digest hashes every output of the run (it must be equal on every
rep of a run), so two trees whose printed lines are equal computed
the same bits.  Run it in both trees and ``diff`` the outputs to check
that an optimisation changed no output, or run it twice under
different ``PYTHONHASHSEED`` values and ``cmp`` the outputs to check
that no output depends on the hash seed::

    python3 tools/e2e_digests.py --seeds 0-4 --seconds 1
    python3 tools/e2e_digests.py --seeds 0 --seconds 1 \\
        --workloads serve_unique knn_dtw

``--workloads`` defaults to every workload ``BENCHMARK.json`` lists.
Exit status 1 when a run fails or prints no digest.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> range:
    """``"3"`` or an inclusive range ``"0-4"``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def digest(workload: str, seed: int, seconds: float) -> str:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "e2ebench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"{workload} seed {seed}: run.py exited {proc.returncode}"
        )
    return json.loads(lines[-2])["details"]["digest"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args()
    workloads = args.workloads or [
        w["name"]
        for w in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "workloads"
        ]
    ]
    for workload in workloads:
        for seed in args.seeds:
            print(workload, seed, digest(workload, seed, args.seconds))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
