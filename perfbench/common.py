"""Helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import time


class Workload:
    """One workload: set-up, a closed loop of operations, checks.

    Subclasses define ``name``, ``round_size`` (a run always attempts
    whole rounds), ``setup_inputs``, ``warm``, ``op``, ``patch`` and
    ``check``.  ``op(index)`` returns ``(latency_s, ok, measured)``:
    ``measured`` is False for operations kept out of the latency
    figures (the design loop's boundary probe).
    """

    name = ""
    round_size = 1
    #: Fewest rounds a run holds.  With more than one, each latency
    #: figure is the median of the per-round figures, so a stretch of
    #: host noise that slows one round does not set the run's figures;
    #: a round then holds ``run.MIN_MEASURED`` latency-bearing
    #: operations on its own.
    min_rounds = 1
    #: per-layer metric reporting the root span's self time, if any
    root_self_metric = None

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.traced = False

    @property
    def root(self) -> str:
        return f"{self.name}.op"

    @property
    def roots(self) -> tuple[str, ...]:
        """Span names an operation's timed work is recorded under."""
        return (self.root,)

    def timed(self, fn, *args, **kwargs):
        """``(seconds, result)`` of one call; a root span when traced."""
        if self.traced:
            start = time.perf_counter()
            with self.tracer.span(self.root):
                result = fn(*args, **kwargs)
            return time.perf_counter() - start, result
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - start, result

    def count(self, name: str, value: float) -> None:
        if self.traced:
            self.tracer.count(name, value)

    # -- hooks with defaults ----------------------------------------------
    def warm(self) -> None:
        pass

    def begin_timed(self) -> None:
        pass

    def end_timed(self, ops_run: int) -> None:
        self.rss_mb = self_peak_rss_mb()

    def per_op_extra(self, row: dict) -> None:
        """Add figures derived from one op's spans and counts."""

    def check(self) -> set[int]:
        """Indices of operations whose outputs failed a check."""
        return set()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures the workload gathers itself (traced run)."""
        return {}

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> None:
        pass


def steady_period(graph, capacities=None, iterations: int = 64) -> float:
    """Mean iteration period over the last half of a long self-timed
    run of a CSDF graph: the converged period the checks compare
    against (Reiter: the MCR, without capacities)."""
    from repro.csdf.throughput import self_timed_execution

    ends = self_timed_execution(graph, iterations=iterations,
                                capacities=capacities).iteration_ends
    half = iterations // 2
    return (ends[-1] - ends[half - 1]) / half


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
