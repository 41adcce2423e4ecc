"""Steadiness check: separate sets of benchmark runs of one commit.

    python3 perfbench/steady.py                          # every workload
    python3 perfbench/steady.py --workloads design_loop  # one of them

Two sets of ten runs, each run ``perfbench/run.py`` with its own seed
(set 1 uses seeds 1-10, set 2 seeds 1001-1010) at the run length
``BENCHMARK.json`` fixes; the workloads take turns run by run.  For
every workload and end-to-end metric it prints each set's median and
quartiles and the spread ``(q3 - q1) / median``, and compares the second
set's median against the first.  It fails (exit 1) when a spread other
than ``setup_s``'s exceeds the metric's bound, when the second median
is worse than the first by more than the bound, or when the share of
failed operations differs between runs.  ``setup_s``'s spread is
printed but not gated: a run's figure is the median of only two
set-ups, each dominated by process start and imports, so it carries the
host's noise far more than the latency figures, which are medians of a
hundred or more operations; a slower set-up still fails the gate on
the median.  Every run's result line is kept in
``.bench_build/perfbench/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2].split(" ", 1)[1])
    result["wall_s"] = time.monotonic() - start
    return result


def summary(values) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_share(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    if better == "lower":
        return (later - first) / first
    return (first - later) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)

    log = ROOT / ".bench_build" / "perfbench" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = {w: [[] for _ in range(SETS)] for w in args.workloads}
    with open(log, "a") as handle:
        for k in range(SETS):
            for i in range(RUNS):
                seed = 1 + 1000 * k + i
                for workload in args.workloads:
                    result = run_once(workload, seed, spec["run_seconds"])
                    results[workload][k].append(result)
                    handle.write(json.dumps(result) + "\n")
                    handle.flush()
                    print(f"set {k + 1} seed {seed} {workload} "
                          f"({result['wall_s']:.0f} s): "
                          + " ".join(f"{n}={m['value']:.4g}"
                                     for n, m in result["metrics"].items()),
                          flush=True)

    ok = True
    for workload in args.workloads:
        print(f"\n== {workload}")
        shares = []
        for k, runs in enumerate(results[workload]):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            per_run = sorted({(r["failed"], r["attempted"]) for r in runs})
            shares.append({round(f / a, 12) for f, a in per_run})
            print(f"set {k + 1}: failed {failed}/{attempted} "
                  f"(per-run shares {sorted(shares[-1])}), "
                  f"all correct: {all(r['correct'] for r in runs)}")
            ok &= all(r["correct"] for r in runs)
        if any(s != shares[0] or len(s) != 1 for s in shares):
            print("  FAIL: the share of failed operations is not constant")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, runs in enumerate(results[workload]):
                q1, med, q3 = summary([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                verdict = ""
                if name != "setup_s" and spread > bound:
                    verdict, ok = " FAIL spread > bound", False
                elif spread > bound / 3:
                    verdict = " (spread above a third of the bound)"
                if first is None:
                    first = med
                else:
                    worse = worse_share(first, med, metric["better"])
                    verdict += f" vs set 1: {worse:+.1%} worse"
                    if worse > bound:
                        verdict, ok = verdict + " FAIL", False
                print(f"  {name:12s} set {k + 1}: median {med:.4g} "
                      f"q1 {q1:.4g} q3 {q3:.4g} spread {spread:.1%} "
                      f"(bound {bound:.0%}){verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
