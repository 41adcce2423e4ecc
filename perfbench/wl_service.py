"""``service_mix``: one client replaying a fixed request mix against a
resident ``python -m repro serve``.  It runs by name but is left out of
``BENCHMARK.json``: it failed the steadiness gate (see the README).

The server runs in its own process group with ``min(2, cpu_count)``
workers and a 16-entry result cache.  One operation is one round of 15
requests, sent one after another over loopback:

* 8 ``/analyze`` resubmissions (ResultCache hits: the two resident
  graphs at four ``iterations`` values each);
* 2 ``/analyze`` with ``iterations`` rotating over three values on the
  resident graphs (warm-worker misses: each key comes back only after
  the LRU has dropped it, see ``CACHE_SIZE``);
* 2 ``/simulate`` with limits rotating over three variants;
* 1 ``/lint`` rotating over three 20-actor graphs;
* 1 ``/analyze_parametric`` on the gallery radio graph, with the
  parameter box rotating over three variants;
* 1 session edit script (two execution-time edits, then the warm
  re-analysis on the session's worker).

The proportions are chosen, not measured from a traffic log: one
request of each cached kind that must compute (so every layer behind
the cache is exercised every round), two of the kinds whose cost
depends on the graph (one per resident graph), and more cache hits than
computed requests (8 of the 14 cached requests), since resubmitting an
unchanged graph is the service's common case.  The session script is
the one request the cache never answers.

Set-up starts the server and replays one full rotation (three rounds)
untimed, so every worker has decoded every graph and the cache holds
exactly the steady-state keys when timing starts.  An operation's
latency is the sum of its requests' round-trip times; the response
checks between requests are not timed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

from common import Workload, pid_alive, proc_peak_rss_mb
from gen import random_graph

#: ``iterations`` of the /analyze resubmissions that hit the cache.
HIT_ITERATIONS = (3, 4, 8, 9)
#: Result cache entries.  A round refreshes the 8 hit keys, then
#: computes 6 rotating keys, each reused three rounds later.  With 14 to
#: 20 entries the hit keys are never the least recently used and every
#: rotating key is evicted before its reuse (by 12 newer keys plus the
#: refreshed hit keys), so each round has 8 hits, 6 computed and 6
#: evictions.
CACHE_SIZE = 16
#: Seeds the working set (fixed; ``--seed`` varies the rest).
GRAPH_SEED = 2016
ROTATION = 3
SIM_ITERATIONS = 4
ENDPOINTS = ("service.analyze_hit", "service.analyze_miss", "service.simulate",
             "service.lint", "service.parametric", "service.session_edits")
DOMAINS = ({"b": (1, 6), "c": (1, 4)}, {"b": (1, 4), "c": (1, 6)},
           {"b": (2, 6), "c": (1, 5)})


class ServiceMix(Workload):
    name = "service_mix"
    round_size = 1
    roots = ENDPOINTS

    def setup_inputs(self) -> None:
        from repro.analysis import EditSession
        from repro.gallery import parametric_radio_graph
        from repro.io import csdf_from_dict, csdf_to_dict

        # The graphs are the same in every run (their costs differ
        # widely, so a seeded handful would let the seed pick the run's
        # cost); the seed picks the rotation phase and the edits.
        seeds = [GRAPH_SEED + i for i in range(6)]
        rng = random.Random(self.seed)
        self.phase = rng.randrange(ROTATION)
        small, small_truth = random_graph(40, 20, 2, seeds[0])
        large, large_truth = random_graph(80, 40, 2, seeds[1])
        self.graphs = {"g40": small, "g80": large}
        self.lint_graphs = [random_graph(20, 10, 2, s)[0] for s in seeds[2:5]]
        self.radio = parametric_radio_graph()
        self.session_graph = csdf_from_dict(
            csdf_to_dict(random_graph(40, 20, 2, seeds[5])[0].as_csdf()))
        self.session_payload = csdf_to_dict(self.session_graph)
        self.session_kernels = rng.sample(sorted(
            a for a in self.session_graph.actors if a.startswith("k")), 6)
        self.limits = {}
        for key, graph, truth in (("g40", small, small_truth),
                                  ("g80", large, large_truth)):
            base = {k: truth.q[k] * SIM_ITERATIONS for k in graph.kernels}
            self.limits[key] = [dict(base, sink0=base["sink0"] - d)
                                for d in range(ROTATION)]
        #: request key -> digest of the first response seen for it
        self.digests: dict = {}
        self.session_digests: list = []
        self.bad_ops: set[int] = set()
        #: request key -> timed rounds that sent it
        self.uses: dict = {}
        self.EditSession = EditSession
        self.server = None
        self.start_server()

    # -- server lifecycle --------------------------------------------------
    def start_server(self) -> None:
        from repro.service import ServiceClient

        root = Path(__file__).resolve().parent.parent
        workers = max(1, min(2, os.cpu_count() or 1))
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--cache-size", str(CACHE_SIZE)],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        line = self.server.stdout.readline()
        if "listening on " not in line:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        url = line.split("listening on ")[1].split()[0]
        self.client = ServiceClient(url, timeout=120.0)
        self.session = self.client.session(self.session_payload)

    def worker_pids(self) -> list[int]:
        return [row["pid"] for row in self.client.stats()["workers"]
                if row.get("alive")]

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None or server.poll() is not None:
            return
        pids = self.worker_pids_quiet()
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait(timeout=15)
        server.stdout.close()
        deadline = time.monotonic() + 10
        while any(pid_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in pids:
            if pid_alive(pid):
                os.kill(pid, signal.SIGKILL)

    def worker_pids_quiet(self) -> list[int]:
        try:
            return self.worker_pids()
        except (OSError, ValueError, AttributeError):
            return []

    # -- the request mix ---------------------------------------------------
    def requests(self, rnd: int):
        """``(endpoint, key, call)`` for every request of round ``rnd``."""
        c, g, turn = self.client, self.graphs, (rnd + self.phase) % ROTATION
        out = []
        for name in ("g40", "g80"):
            for iterations in HIT_ITERATIONS:
                out.append(("service.analyze_hit", ("analyze", name, iterations),
                            lambda name=name, it=iterations:
                            c.analyze(g[name], iterations=it)))
        for name, iterations in (("g40", 5 + turn), ("g80", 5 + (turn + 1) % 3)):
            out.append(("service.analyze_miss", ("analyze", name, iterations),
                        lambda name=name, it=iterations:
                        c.analyze(g[name], iterations=it)))
        for name, variant in (("g40", turn), ("g80", (turn + 1) % 3)):
            limits = self.limits[name][variant]
            out.append(("service.simulate", ("simulate", name, variant),
                        lambda name=name, limits=limits:
                        c.simulate(g[name], limits=limits)))
        lint_graph = self.lint_graphs[turn]
        out.append(("service.lint", ("lint", turn),
                    lambda: c.lint(lint_graph)))
        domain = DOMAINS[turn]
        out.append(("service.parametric", ("parametric", turn),
                    lambda: c.analyze_parametric(self.radio, domain)))
        edits = self.session_edits(rnd)
        out.append(("service.session_edits", None,
                    lambda: self.session.edits(edits)))
        return out

    def session_edits(self, rnd: int) -> list:
        kernels = self.session_kernels
        return [{"op": "set_exec_time", "actor": kernels[(2 * rnd + i) % len(kernels)],
                 "value": [float(1 + (rnd + i) % 4)]} for i in range(2)]

    def run_round(self, rnd: int, index: int | None) -> float:
        total = 0.0
        for endpoint, key, call in self.requests(rnd):
            if self.traced:
                start = time.perf_counter()
                with self.tracer.span(endpoint):
                    response = call()
                total += time.perf_counter() - start
            else:
                start = time.perf_counter()
                response = call()
                total += time.perf_counter() - start
            self.record(key, response, index)
        return total

    def warm(self) -> None:
        for rnd in range(-ROTATION, 0):
            self.run_round(rnd, None)

    def op(self, index: int):
        return self.run_round(index, index), True, True

    # -- checks ------------------------------------------------------------
    def record(self, key, response, index) -> None:
        digest = digest_of(response)
        if key is None:
            self.session_digests.append((index, digest))
            return
        first = self.digests.setdefault(key, (digest, index))
        if index is not None:
            self.uses.setdefault(key, []).append(index)
            if first[0] != digest:
                self.bad_ops.add(index)

    def check(self) -> set[int]:
        """Every distinct response against a direct in-process call of
        the same front door on a decoded copy of the request."""
        from repro.analysis import analyze, analyze_parametric, simulate
        from repro.diagnostics import run_diagnostics
        from repro.io import graph_from_payload, graph_to_payload

        def copy(graph):
            return graph_from_payload(json.loads(json.dumps(
                graph_to_payload(graph))))

        graphs = {name: copy(graph) for name, graph in self.graphs.items()}
        bad = set(self.bad_ops)
        for key, (digest, index) in self.digests.items():
            kind = key[0]
            if kind == "analyze":
                want = analyze(graphs[key[1]], iterations=key[2])
            elif kind == "simulate":
                want = simulate(graphs[key[1]], limits=self.limits[key[1]][key[2]])
            elif kind == "lint":
                want = run_diagnostics(copy(self.lint_graphs[key[1]]))
            else:
                want = analyze_parametric(copy(self.radio), DOMAINS[key[1]])
            if digest_of(want) != digest:
                bad.update(self.uses.get(key, ()))
        # The session: replay every edit script in order on a local copy.
        local = self.EditSession(copy(self.session_graph))
        local.analyze()
        for rnd, (index, digest) in zip(range(-ROTATION, 10 ** 9),
                                        self.session_digests):
            for edit in self.session_edits(rnd):
                local.apply(edit)
            if digest_of(local.analyze()) != digest and index is not None:
                bad.add(index)
        return bad

    # -- tracing -----------------------------------------------------------
    def patch(self, tracer) -> None:
        import repro.service.client as client

        def sized(fn, counter):
            def traced(data, *args, **kwargs):
                self.count(counter, len(data) / 1024.0)
                return fn(data, *args, **kwargs)
            return traced

        proxy = types.SimpleNamespace(
            dumps=tracer.wrapper("io.client_encode",
                                 _measure_out(json.dumps, self.count)),
            loads=tracer.wrapper("io.client_json_decode",
                                 sized(json.loads, "io.response_kb")),
            JSONDecodeError=json.JSONDecodeError)
        tracer.patch(client, "json", "", make=lambda _: proxy)
        tracer.patch(client, "graph_to_payload", "io.client_encode")
        for name in ("report_from_dict", "trace_from_dict",
                     "parametric_report_from_dict"):
            tracer.patch(client, name, "io.client_decode")

    def begin_timed(self) -> None:
        self.stats_before = self.client.stats()

    def end_timed(self, ops_run: int) -> None:
        self.ops_run = ops_run
        self.stats_after = self.client.stats()
        pids = self.worker_pids()
        self.worker_rss = sum(proc_peak_rss_mb(pid) for pid in pids)
        self.server_rss = proc_peak_rss_mb(self.server.pid)

    def peak_rss_mb(self) -> float:
        return self.server_rss + self.worker_rss

    def layer_metrics(self) -> dict[str, float]:
        before, after = self.stats_before, self.stats_after
        ops = max(1, self.ops_run)
        out = {"service.worker_rss_mb": self.worker_rss}
        for metric, section, field in (
                ("service.cache_hits", "cache", "hits"),
                ("service.cache_computed", "cache", "computed"),
                ("service.cache_evictions", "cache", "evictions"),
                ("service.pool_requests", "pool", "requests"),
                ("service.retries", "pool", "retries"),
                ("service.worker_restarts", "pool", "worker_restarts")):
            out[metric] = (after[section][field] - before[section][field]) / ops
        return out


def _measure_out(dumps, count):
    def measured(obj, *args, **kwargs):
        text = dumps(obj, *args, **kwargs)
        count("io.request_kb", len(text) / 1024.0)
        return text
    return measured


def digest_of(response):
    """A comparable value identity of any front door's response."""
    if isinstance(response, list):  # diagnostics
        return tuple(json.dumps(d.to_dict(), sort_keys=True) for d in response)
    return response.fingerprint()
