"""Scaling curves of the machinery (E10 extension).

Where the costs grow and how fast — the numbers that size new
experiments: the explorer's factorial schedule tree, the cover DP in N,
protocol runs in port count, and the lattice construction in m.
"""

import math

from repro.algorithms.set_consensus_from_family import (
    partition_set_consensus_spec,
)
from repro.core.hierarchy import set_consensus_lattice
from repro.core.power import cover_agreement, family_profile
from repro.objects.register import RegisterSpec
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.system import SystemSpec


def one_step_spec(n_processes):
    def make(pid):
        def run():
            yield invoke("r", "write", pid)
            return pid

        return run

    return SystemSpec({"r": RegisterSpec()}, [make(p) for p in range(n_processes)])


def test_explorer_factorial_frontier(benchmark):
    """5 one-step processes: 120 leaves, 325 tree edges stepped once each."""

    def run():
        explorer = Explorer(one_step_spec(5), max_depth=6)
        return sum(1 for _ in explorer.executions())

    count = benchmark(run)
    assert count == math.factorial(5)


def test_cover_dp_large_n(benchmark):
    profile = family_profile(3, 4)

    def run():
        return cover_agreement(500, [profile])

    value = benchmark(run)
    assert value == cover_agreement(500, [profile])  # deterministic


def test_protocol_run_100_processes(benchmark):
    inputs = [f"v{i}" for i in range(100)]
    spec = partition_set_consensus_spec(2, 1, inputs)

    def run():
        return spec.run(RandomScheduler(9))

    execution = benchmark(run)
    assert execution.all_done()
    assert len(execution) == 100  # one step per process


def test_lattice_m20(benchmark):
    graph = benchmark(set_consensus_lattice, 20)
    assert graph.number_of_nodes() == sum(m - 1 for m in range(2, 21))
