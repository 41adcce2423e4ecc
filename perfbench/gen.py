"""Seeded input graphs for the benchmark, with integer ground truth.

:func:`random_graph` builds exactly the graph
``repro.tpdf.random_consistent_graph(n, extra_edges, n_cycles, seed)``
builds (same RNG draws, same names, rates, tokens and control actor;
``run.py`` compares the two once per run), but takes the repetition
vector from the generator's own base solution with integer arithmetic
instead of calling the library's symbolic solver.  That keeps input
generation cheap enough to hand every ``cold_analyze`` operation a
never-seen graph, and gives the output checks a repetition vector,
channel rates and execution times that owe nothing to the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from math import gcd


@dataclass
class Truth:
    """What the generator knows about its graph, as plain integers."""

    #: actor -> execution time (every actor has one phase)
    exec_time: dict[str, float] = field(default_factory=dict)
    #: repetition vector of the whole graph, gcd 1
    q: dict[str, int] = field(default_factory=dict)
    #: channel name -> (src, dst, production, consumption, initial tokens)
    channels: dict[str, tuple[str, str, int, int, int]] = field(default_factory=dict)


def random_graph(n_actors: int, extra_edges: int, n_cycles: int, seed: int):
    """``(TPDFGraph, Truth)`` for one seeded concrete graph with one
    control actor (``ctrl0`` steering ``sink0``)."""
    from repro.tpdf.graph import TPDFGraph

    rng = random.Random(seed)
    graph = TPDFGraph(f"rand{seed}")
    truth = Truth()
    names = [f"k{i}" for i in range(n_actors)]
    base = {name: rng.randint(1, 4) for name in names}
    for name in names:
        exec_time = rng.choice([1.0, 2.0, 4.0])
        graph.add_kernel(name, exec_time=exec_time).meta["base"] = base[name]
        truth.exec_time[name] = exec_time
    scale = reduce(gcd, base.values())
    q = {name: base[name] // scale for name in names}
    counter = 0

    def connect(src: str, dst: str, tokens: int = 0):
        nonlocal counter
        counter += 1
        g = gcd(base[src], base[dst])
        production, consumption = base[dst] // g, base[src] // g
        graph.node(src).add_output(f"o_{counter}", production)
        graph.node(dst).add_input(f"i_{counter}", consumption)
        channel = graph.connect((src, f"o_{counter}"), (dst, f"i_{counter}"),
                                initial_tokens=tokens)
        truth.channels[channel.name] = (src, dst, production, consumption, tokens)

    for src, dst in zip(names, names[1:]):
        connect(src, dst)
    for _ in range(extra_edges):
        i, j = sorted(rng.sample(range(n_actors), 2))
        connect(names[i], names[j])
    for _ in range(n_cycles):
        # A back edge seeded with one local iteration of its consumer.
        i, j = sorted(rng.sample(range(n_actors), 2))
        consumption = base[names[j]] // gcd(base[names[j]], base[names[i]])
        connect(names[j], names[i], tokens=consumption * q[names[i]])

    # The control actor consumes one local iteration of the last kernel
    # per firing and steers a sink that fires once per iteration.
    last = names[-1]
    q_last = q[last]
    control = graph.add_control_actor("ctrl0")
    graph.node(last).add_output(f"o_{counter + 1}", 1)
    control.add_input("in", q_last)
    control.add_control_output("out", 1)
    sink = graph.add_kernel("sink0")
    sink.add_input("in", q_last)
    sink.add_control_port("ctrl", 1)
    graph.node(last).add_output(f"o_{counter + 2}", 1)
    for src, sport, dst, dport in ((last, f"o_{counter + 1}", "ctrl0", "in"),
                                   ("ctrl0", "out", "sink0", "ctrl"),
                                   (last, f"o_{counter + 2}", "sink0", "in")):
        channel = graph.connect((src, sport), (dst, dport))
        production = 1
        consumption = q_last if dport == "in" else 1
        truth.channels[channel.name] = (src, dst, production, consumption, 0)
    truth.exec_time["ctrl0"] = 0.0
    truth.exec_time["sink0"] = 1.0
    q["ctrl0"] = q["sink0"] = 1
    truth.q = q
    return graph, truth
