"""queryspell benchmark: run one workload for one seed.

    python3 qsbench/run.py --workload typo_queries --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1`` (the same names on
every workload).  Diagnostics go to standard error.  A run that cannot give
every metric exits 1 without a result.  See ``qsbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("typo_queries", "service_refresh", "train_offline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "queryspell").is_dir() or not (ROOT / "tests").is_dir():
        print(f"qsbench: no queryspell sources under {ROOT}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from common import use_repo_sources

    use_repo_sources()
    import importlib

    workload = importlib.import_module(args.workload)
    traced = bool(args.trace)
    result = workload.run(args.seed, args.seconds, traced)
    if traced:
        result.layers_not_run(workload.LAYERS_NOT_RUN)
    for error in result.errors:
        print(f"qsbench: check failed: {error}", file=sys.stderr)
    print(f"qsbench: {json.dumps(result.notes, sort_keys=True)}", file=sys.stderr)
    missing = result.missing(traced)
    if missing:
        print(f"qsbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
