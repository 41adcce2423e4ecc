"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of this repository (``src/repro`` must
be there).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it carries the run's provenance.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up probes per run, each in a fresh process; with the run's own
#: set-up they give the samples setup_s is the median of.
SETUP_PROBES = 1
#: Fewest latency-bearing operations a run holds (ten beyond p90).
MIN_MEASURED = 100
WORKLOADS = {
    "cold_analyze": ("wl_cold", "ColdAnalyze"),
    "design_loop": ("wl_design", "DesignLoop"),
    "service_mix": ("wl_service", "ServiceMix"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, tracer):
    """Set the workload up and time its three stages."""
    start = time.perf_counter()
    import repro.analysis  # noqa: F401  (the import stage)
    import repro.io  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.tpdf  # noqa: F401
    imported = time.perf_counter()
    module, cls = WORKLOADS[name]
    workload = getattr(__import__(module), cls)(seed, tracer)
    try:
        workload.setup_inputs()
        inputs = time.perf_counter()
        workload.warm()
    except BaseException:
        workload.close()
        raise
    ready = time.perf_counter()
    return workload, {"setup_s": ready - start,
                      "setup.import_ms": (imported - start) * 1e3,
                      "setup.inputs_ms": (inputs - imported) * 1e3,
                      "setup.warm_ms": (ready - inputs) * 1e3}


def probe_setup(args) -> dict:
    """One set-up in a fresh process (imports included)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=150)
    except BaseException:
        proc.terminate()  # the probe stops its own server on SIGTERM
        proc.communicate(timeout=30)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest()[:16],
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_phase(workload, seconds: float, trace: bool, tracer):
    """Whole rounds until the summed operation time reaches ``seconds``,
    at least ``MIN_MEASURED`` operations count towards the latency
    figures (so at least ten lie beyond p90) and the run holds
    ``workload.min_rounds`` rounds.

    In a traced run, even rounds run with the tracing wrappers
    installed and odd rounds without, so the run also measures how far
    tracing slows the workload; it holds at least two rounds."""
    ops = []  # (index, latency, ok, measured, traced)
    busy = 0.0
    measured_ops = 0
    rnd = 0
    workload.begin_timed()
    while (busy < seconds or measured_ops < MIN_MEASURED
           or rnd < workload.min_rounds or (trace and rnd < 2)):
        traced = trace and rnd % 2 == 0
        if traced:
            workload.patch(tracer)
            workload.traced = True
        try:
            for position in range(workload.round_size):
                index = rnd * workload.round_size + position
                tracer.op_id = index
                try:
                    latency, ok, measured = workload.op(index)
                except Exception as exc:  # an operation that raises fails
                    print(f"op {index} raised {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    latency, ok, measured = 0.0, False, True
                ops.append((index, latency, ok, measured, traced))
                busy += latency
                measured_ops += measured
        finally:
            tracer.unpatch_all()
            workload.traced = False
        rnd += 1
    workload.end_timed(len(ops))
    return ops


def latency_metrics(ops, failed_checks, round_size=None) -> dict:
    """Throughput and latency figures of ``ops``; with ``round_size``,
    the medians of each round's figures."""
    if round_size is not None:
        rounds: dict[int, list] = {}
        for op in ops:
            rounds.setdefault(op[0] // round_size, []).append(op)
        per_round = [latency_metrics(group, failed_checks)
                     for group in rounds.values()]
        out = {name: statistics.median(r[name] for r in per_round)
               for name in ("ops_per_s", "op_ms_p50", "op_ms_p90")}
        out["samples"] = sum(r["samples"] for r in per_round)
        return out
    done = [lat for index, lat, ok, measured, _ in ops
            if ok and measured and index not in failed_checks]
    busy = sum(lat for _, lat, *_ in ops)
    ms = [lat * 1e3 for lat in done]
    return {"ops_per_s": len(done) / busy if busy else 0.0,
            "op_ms_p50": statistics.median(ms) if ms else 0.0,
            "op_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else 0.0,
            "samples": len(ms)}


def rounds_of(workload):
    """The round size latency figures are taken per round at, if any."""
    return workload.round_size if workload.min_rounds > 1 else None


def layer_metrics(workload, ops, tracer) -> dict:
    """Per-operation medians of self times and counts (traced rounds)."""
    traced = [index for index, _, ok, measured, tr in ops
              if tr and ok and measured]
    roots = set(workload.roots)
    per_op = tracer.self_times(roots)
    rows = []
    for index in traced:
        row = {f"{name}_ms": value for name, value in per_op.get(index, {}).items()}
        row.update(tracer.counts.get(index, {}))
        workload.per_op_extra(row)
        rows.append(row)
    names = {name for row in rows for name in row}
    out = {name: statistics.median([row.get(name, 0.0) for row in rows])
           for name in names}
    root_self = out.pop(f"{workload.root}_ms", 0.0)
    if workload.root_self_metric:
        out[workload.root_self_metric] = root_self
    for endpoint in roots:
        if endpoint != workload.root:
            durations = tracer.durations(endpoint)
            out[f"{endpoint}_ms"] = statistics.median(durations) if durations else 0.0
    out["trace.coverage"] = tracer.coverage(roots)
    untraced = [o for o in ops if not o[4]]
    traced_ops = [o for o in ops if o[4]]
    if untraced and traced_ops:
        a = latency_metrics(traced_ops, set(), rounds_of(workload))["ops_per_s"]
        b = latency_metrics(untraced, set(), rounds_of(workload))["ops_per_s"]
        out["trace.ops_per_s_ratio"] = a / b if b else 0.0
    return out


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_kb", "kB"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count/op" if name.startswith("service.") else "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The service stops cleanly on SIGINT.  A run started with SIGINT
    # ignored (a background job) would hand that on to the server, whose
    # stop would then wait for the kill timeout.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from tracing import Tracer

    if args.setup_probe:
        workload, sample = load_workload(args.workload, args.seed, Tracer())
        print(json.dumps(sample), flush=True)
        workload.close()
        return 0

    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = Tracer()
    workload, sample = load_workload(args.workload, args.seed, tracer)
    samples.append(sample)
    try:
        ops = timed_phase(workload, args.seconds, bool(args.trace), tracer)
        rss = workload.peak_rss_mb()
        extra = workload.layer_metrics() if args.trace else {}
    finally:
        workload.close()
    failed_checks = workload.check()
    attempted = len(ops)
    failed = sum(1 for index, _, ok, _, _ in ops
                 if not ok or index in failed_checks)
    # Operations kept out of the latency figures probe known faults
    # (see the README); every other operation must succeed and pass
    # its checks for the run to be correct.
    wrong = any(not ok or index in failed_checks
                for index, _, ok, measured, _ in ops if measured)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = layer_metrics(workload, ops, tracer)
        values.update(extra)
        for key in ("setup.import_ms", "setup.inputs_ms", "setup.warm_ms"):
            values[key] = statistics.median(s[key] for s in samples)
        wanted = spec["per_layer"]
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            # service_mix is left out of BENCHMARK.json (see the README)
            # and so out of its per-layer list: report what it measured.
            wanted = [{"name": name, "unit": unit_of(name)}
                      for name in sorted(values)]
    else:
        values = latency_metrics(ops, failed_checks, rounds_of(workload))
        values["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        values["peak_rss_mb"] = rss
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    prov = provenance(args)
    if args.trace:
        out = ROOT / ".bench_build" / "perfbench" / \
            f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, prov)
        prov["spans"] = str(out.relative_to(ROOT))
    prov["setup_samples_s"] = [round(s["setup_s"], 4) for s in samples]
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
