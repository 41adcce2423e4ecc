"""``cold_analyze``: ``analyze()`` of a never-seen 40-actor graph.

Each operation generates a fresh concrete TPDF graph (40 kernels, 20
extra edges, 2 live back-edge cycles, one control actor: the shape of
``random_consistent_graph`` used by the scalability and incremental
benches) outside the timed region, then times one
``repro.analysis.analyze`` call with every stage on.  Its outputs are
checked right after, outside the timed region.

The graphs come from a pool of 100 generator seeds, the same in every
run; a round analyzes each of them once, in an order drawn from
``--seed``.  Analysis caches belong to the graph object, so a graph
regenerated for a later round is as new to the process as the first.
With 100 graphs drawn from the seed instead, a run's p90 followed
which costly graphs the seed happened to draw (p90/p50 ranged
1.2-1.7 between seeds, 1.16-1.28 for the fixed graphs of
``design_loop`` in the same runs).

A run holds at least three rounds and reports the median of their
figures.  The host's speed drifts by up to 1.5x over stretches of tens
of seconds; one round's p90 follows whatever share of the round such a
stretch covers (with one round of 80-kernel graphs per run,
``op_ms_p90`` spread 23-27 % over ten runs), while the median round's
does not.  Three rounds of 80-kernel graphs would not fit a run, so
the graphs have 40 kernels, the size ``design_loop`` edits.
"""

from __future__ import annotations

import random
from functools import reduce
from math import gcd

from common import Workload, steady_period
from gen import random_graph

ACTORS = 40
#: Graphs in the pool, one round.
POOL = 100
#: Seeds the pool (fixed; ``--seed`` orders it).
POOL_SEED = 2016
REITER_TOLERANCE = 1e-6


def graph_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def shape(seed: int):
    return random_graph(ACTORS, ACTORS // 2, 2, seed)


class ColdAnalyze(Workload):
    name = "cold_analyze"
    round_size = POOL
    min_rounds = 3
    root_self_metric = "analysis.self_ms"

    def setup_inputs(self) -> None:
        import repro.analysis

        self.analysis = repro.analysis
        self.order_rng = random.Random(self.seed)
        #: per round, the order the pool is analyzed in
        self.orders: list[list[int]] = []

    def warm(self) -> None:
        # Imports the lazily loaded stages and builds numpy state once.
        graph, _ = shape(graph_seed(POOL_SEED, -1))
        self.analysis.analyze(graph)

    def graph_seed_of(self, index: int) -> int:
        rnd, position = divmod(index, POOL)
        while len(self.orders) <= rnd:
            self.orders.append(self.order_rng.sample(range(POOL), POOL))
        return graph_seed(POOL_SEED, self.orders[rnd][position])

    def op(self, index: int):
        graph, truth = shape(self.graph_seed_of(index))
        latency, report = self.timed(self.analysis.analyze, graph)
        if self.traced:
            self.count("csdf.hsdf_nodes", sum((report.repetition or {}).values()))
            self.count("csdf.timed_firings",
                       report.timed.firings if report.timed else 0)
        return latency, check_report(graph, truth, report), True

    def patch(self, tracer) -> None:
        import repro.analysis as analysis
        import repro.csdf.analysis as csdf_analysis
        import repro.tpdf.boundedness as boundedness
        from repro.tpdf.graph import TPDFGraph

        tracer.patch(TPDFGraph, "as_csdf", "tpdf.as_csdf")
        tracer.patch(csdf_analysis, "repetition_vector", "symbolic.balance")
        tracer.patch(boundedness, "check_boundedness", "tpdf.boundedness")
        tracer.patch(analysis, "max_cycle_ratio", "csdf.mcr")
        tracer.patch(analysis, "minimal_buffer_schedule", "csdf.buffer_schedule")
        tracer.patch(analysis, "self_timed_execution", "csdf.timed")

    def check(self) -> set[int]:
        """The benchmark's generator must still build exactly what the
        library generator builds (else op 0's input is off-shape)."""
        from repro.io import tpdf_to_dict
        from repro.tpdf import random_consistent_graph

        seed = self.graph_seed_of(0)
        ours, _ = shape(seed)
        theirs = random_consistent_graph(ACTORS, extra_edges=ACTORS // 2,
                                         n_cycles=2, seed=seed)
        return set() if tpdf_to_dict(ours) == tpdf_to_dict(theirs) else {0}


def check_report(graph, truth, report) -> bool:
    """Every output of the report against integer ground truth or a
    property the analysis must have."""
    from repro.csdf.buffers import minimal_buffer_schedule

    if report.errors or not (report.consistent and report.safe
                             and report.live and report.bounded):
        return False
    q = report.repetition
    if q is None or set(q) != set(truth.exec_time):
        return False
    # Balance and minimality, in the benchmark's own integers.
    for src, dst, production, consumption, _ in truth.channels.values():
        if q[src] * production != q[dst] * consumption:
            return False
    if reduce(gcd, q.values()) != 1 or q != truth.q:
        return False
    # The MCR bounds every actor's serialization ring ...
    mcr = report.mcr
    if mcr is None or any(q[a] * t > mcr * (1 + 1e-12)
                          for a, t in truth.exec_time.items()):
        return False
    # ... and is the steady period of a long self-timed run (Reiter).
    csdf = graph.as_csdf()
    if abs(steady_period(csdf) - mcr) > REITER_TOLERANCE * mcr:
        return False
    # The buffer schedule, replayed with the benchmark's own counter.
    schedule, _ = minimal_buffer_schedule(csdf)
    return replay_peaks(schedule, truth) == report.buffers


def replay_peaks(schedule, truth):
    """Per-channel peak fill of one iteration of ``schedule``, or None
    when it underflows a channel, misses a repetition count, or does not
    return to the initial marking."""
    tokens = {name: row[4] for name, row in truth.channels.items()}
    peaks = dict(tokens)
    inputs: dict[str, list] = {a: [] for a in truth.exec_time}
    outputs: dict[str, list] = {a: [] for a in truth.exec_time}
    for name, (src, dst, production, consumption, _) in truth.channels.items():
        outputs[src].append((name, production))
        inputs[dst].append((name, consumption))
    fired = dict.fromkeys(truth.exec_time, 0)
    for actor in schedule:
        for name, consumption in inputs[actor]:
            if tokens[name] < consumption:
                return None
            tokens[name] -= consumption
        for name, production in outputs[actor]:
            tokens[name] += production
            peaks[name] = max(peaks[name], tokens[name])
        fired[actor] += 1
    if fired != truth.q:
        return None
    if any(tokens[name] != row[4] for name, row in truth.channels.items()):
        return None
    return peaks
