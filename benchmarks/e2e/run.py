"""End-to-end benchmark: SQL text in, rewritten SQL and result rows out.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 13] [--seconds 25]
                                  [--trace 0|1|DIR] [--out FILE]

Without ``--workload`` every workload runs, one after another.  Each
runs in fresh processes of its own (``workload.py``) with one client
thread in a closed loop.  With ``--trace 0`` (the default) a workload
is set up five times (``setup_s`` is the median) and measured for
``--seconds``.  Any other ``--trace`` runs its fixed profiling slice
untraced and then traced, and reports the per-layer metrics; given a
directory, it also writes the spans to ``DIR/<workload>.jsonl``, which
``python -m repro trace`` reads.  Every metric is printed with its
unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results go
only to stdout, to ``--out`` and to the trace directory.

Exit status: 0 when every request succeeded and every check passed,
1 when a request or check failed or a workload was killed at its time
limit, 2 when the repository's ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Workload names, in the order a full run measures them.
WORKLOADS = ("adhoc", "plan_cache", "fullset_2col")

#: Fresh processes set up per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 5


def child_limit(seconds: float) -> float:
    """Wall-clock limit of one workload process.  A run must end within
    180 s, so the limit is tied to the run length rather than fixed."""
    return 2.0 * seconds + 60.0


class Killed(Exception):
    """A workload process overran its time limit and was killed."""


def run_child(args: list[str], limit: float) -> dict:
    """Run ``workload.py`` with ``args``; return the JSON it prints."""
    command = [sys.executable, str(HERE / "workload.py"), *args]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=limit, check=False
        )
    except subprocess.TimeoutExpired:
        raise Killed(f"killed after {limit:.0f} s") from None
    if done.returncode != 0:
        raise Killed(f"exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float) -> dict:
    """Set-up probes plus one measured run; the end-to-end report."""
    base = ["--workload", name, "--seed", str(seed)]
    limit = child_limit(seconds)
    setups = [
        run_child([*base, "--mode", "setup"], limit)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    report = run_child([*base, "--seconds", str(seconds)], limit)
    setups.append(report["metrics"]["setup_s"][0])
    report["metrics"]["setup_s"] = [statistics.median(setups), "s"]
    report["setup_runs_s"] = setups
    return report


def profile(name: str, seed: int, seconds: float, trace_dir: Path | None) -> dict:
    """The workload's fixed profiling slice, untraced and then traced;
    the per-layer report with the tracing overhead."""
    base = ["--workload", name, "--seed", str(seed)]
    limit = child_limit(seconds)
    untraced = run_child([*base, "--mode", "profile"], limit)
    traced = [*base, "--mode", "traced"]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced += ["--trace-file", str(trace_dir / f"{name}.jsonl")]
    report = run_child(traced, limit)
    traced_qps = report["extra"]["queries_per_s"][0]
    untraced_qps = untraced["metrics"]["queries_per_s"][0]
    overhead = 1.0 - traced_qps / untraced_qps if traced_qps and untraced_qps else None
    report["metrics"]["trace.overhead_frac"] = [overhead, "ratio"]
    if trace_dir is not None:
        report["trace_file"] = traced[-1]
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(name: str, seed: int, report: dict, traced: bool) -> None:
    print(
        f"== {name} (seed {seed}): {report['attempted']} requests, "
        f"{report['failed']} failed"
        + (f", trace {report['trace_file']}" if "trace_file" in report else "")
    )
    for error in report.get("errors", []):
        print(f"  error: {error}")
    if traced:
        print(f"  {'layer self time':<28} {'ms':>12} {'share':>7}")
        wall = report["request_wall_ms"]
        for layer, ms in report["layers"]:
            label = "(untraced)" if layer == "untraced" else layer
            print(f"  {label:<28} {ms:>12.1f} {ms / wall:>7.1%}")
        total = sum(ms for _, ms in report["layers"])
        print(
            f"  {'sum':<28} {total:>12.1f} of {wall:.1f} ms request wall time "
            f"({abs(total - wall) / wall:.2%} apart)"
        )
    for metric, (value, unit) in report["metrics"].items():
        print(f"  {metric:<34} {_fmt(value):>14} {unit}")
    print("  not gated:")
    for metric, (value, unit) in report["extra"].items():
        print(f"  {metric:<34} {_fmt(value):>14} {unit}")
    if "setup_runs_s" in report:
        runs = ", ".join(f"{s:.3f}" for s in report["setup_runs_s"])
        print(f"  (setup_s is the median of {runs} s)")


def result_line(reports: dict, names: list[str]) -> dict:
    """The final JSON object: the gated metrics of every workload."""
    metrics = {}
    for name in names:
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in reports[name]["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    return {
        "correct": all(reports[name]["failed"] == 0 for name in names),
        "attempted": sum(reports[name]["attempted"] for name in names),
        "failed": sum(reports[name]["failed"] for name in names),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end SQL -> rows benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument(
        "--trace",
        default="0",
        metavar="0|1|DIR",
        help="0: measure; 1: profile by layer; DIR: profile and write the spans there",
    )
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace != "0"
    trace_dir = Path(args.trace) if args.trace not in ("0", "1") else None
    reports: dict[str, dict] = {}
    killed = False
    for name in names:
        try:
            if traced:
                reports[name] = profile(name, args.seed, args.seconds, trace_dir)
            else:
                reports[name] = measure(name, args.seed, args.seconds)
        except Killed as exc:
            print(f"== {name} (seed {args.seed}): FAILED, {exc}")
            killed = True
            continue
        print_report(name, args.seed, reports[name], traced)
    if args.out is not None:
        args.out.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    if killed:
        return 1
    line = result_line(reports, names)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
