"""Minor page faults and wall time per engine operator, over a fixed
slice of the end-to-end ``plan_cache`` workload.

Usage (from the repository root)::

    PYTHONPATH=src python3 benchmarks/probe_engine_faults.py \
        [--seed 13] [--requests 120]

Sets the workload up as ``benchmarks/e2e/workload.py`` does, serves the
first ``--requests`` Zipf draws (the traced slice of ``run.py``), and
reads ``getrusage(RUSAGE_SELF).ru_minflt`` and the clock around each
call of ``execute``, the Filter (``executor._filter``), the dense join
match (``executor._dense_match``) and the column gather
(``_LazyColumn.materialize``).  The counts are inclusive: a gather made
inside a Filter counts for both.  Prints one line per site and the
JSON object of the same figures last.  A fault count far above zero
means arrays are being mapped afresh on each execution (docs/INTERNALS.md,
"Engine memory").
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workload  # noqa: E402  (benchmarks/e2e/workload.py)
from repro.engine import executor  # noqa: E402
from repro.engine.table import _LazyColumn  # noqa: E402


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _probed(function, totals: dict, site: str):
    """``function``, adding its faults and milliseconds to ``totals[site]``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        faults, t0 = _faults(), time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            entry = totals.setdefault(site, {"calls": 0, "faults": 0, "ms": 0.0})
            entry["calls"] += 1
            entry["faults"] += _faults() - faults
            entry["ms"] += (time.perf_counter() - t0) * 1000.0

    return wrapper


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--requests", type=int, default=120)
    args = parser.parse_args(argv)

    env = workload.set_up(workload.WORKLOADS["plan_cache"], args.seed)
    totals: dict[str, dict] = {}
    workload.execute = _probed(workload.execute, totals, "execute")
    executor._filter = _probed(executor._filter, totals, "_filter")
    executor._dense_match = _probed(executor._dense_match, totals, "_dense_match")
    _LazyColumn.materialize = _probed(_LazyColumn.materialize, totals, "materialize")
    run = workload.run_requests(env, requests=args.requests)
    failed = sum(request.error is not None for request in run.requests)

    for site, entry in sorted(totals.items(), key=lambda item: -item[1]["faults"]):
        print(
            f"{site:14s} {entry['calls']:7d} calls {entry['faults']:9d} faults "
            f"{entry['ms']:9.1f} ms"
        )
    print(json.dumps({"seed": args.seed, "requests": len(run.requests),
                      "failed": failed, "sites": totals}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
