"""The engine makes no reference cycles, and the drivers pause the collector.

Nodes point only down and no helper closes over itself, so reference
counting alone frees a dropped diagram, context and memo.  The engine leans
on that: ``strategies._run`` switches Python's cyclic garbage collector off
for the gate loop, and ``ops.apply`` for each gate, and both switch it back
to its prior state afterwards.
"""
import gc
import math
import sys
from contextlib import contextmanager

import pytest

from ddqsim import strategies
from ddqsim.circuit import (Gate, gen_ghz, gen_shor_period, gen_supremacy,
                            parse_qasm)
from ddqsim.dd import CapacityError, Context
from ddqsim.ops import apply, fidelity
from ddqsim.oracle import random_state


@contextmanager
def collector_paused():
    """Collector off inside the block, prior state restored after it."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class CountingContext(Context):
    """A context that counts its garbage collections (no self-reference)."""

    def __init__(self):
        super().__init__()
        self.collections = 0

    def collect_garbage(self) -> int:
        self.collections += 1
        return super().collect_garbage()


def exact_run():
    state, stats = strategies.simulate_exact(gen_supremacy(2, 3, 6, 1))
    assert stats.max_dd_size > 1


def memory_run():
    ctx = CountingContext()
    state, stats = strategies.simulate_memory_driven(
        gen_supremacy(2, 3, 8, 2), strategies.MemoryDrivenConfig(10, 0.95),
        ctx)
    assert stats.rounds
    assert ctx.collections > 0
    ctx.collect_garbage()


def fidelity_run():
    state, stats = strategies.simulate_fidelity_driven(
        gen_shor_period(15, 7), strategies.FidelityDrivenConfig(0.5, 0.9))
    assert stats.rounds


def dense_fidelity_and_parse():
    state, _ = strategies.simulate_exact(gen_supremacy(2, 2, 4, 3))
    assert state.to_dense().shape == (16,)
    assert fidelity(state, state) == pytest.approx(1.0)
    circuit = parse_qasm("OPENQASM 2.0;\nqreg q[2];\n"
                         "rz(-pi/4 + 2*0.5) q[0];\ncx q[0],q[1];\n")
    assert circuit.ops[0].angle == pytest.approx(1 - math.pi / 4)


@pytest.mark.parametrize("scenario", [
    exact_run, memory_run, fidelity_run, dense_fidelity_and_parse],
    ids=lambda f: f.__name__)
def test_engine_makes_no_reference_cycles(scenario, monkeypatch):
    # A low watermark makes the memory run collect garbage mid-loop.
    monkeypatch.setattr(strategies, "GC_WATERMARK", 16)
    with collector_paused():
        scenario()
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_collector_state(enabled):
    seen = []

    def policy(done, count):
        seen.append(gc.isenabled())

    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        strategies._run(gen_ghz(5), None, "exact", policy)
        # One call per window: the H, then the four CX gates fused into one
        # window of two blocks.
        assert seen == [False] * 2
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_run_restores_collector_after_capacity_error():
    assert gc.isenabled()
    with pytest.raises(CapacityError):
        strategies.simulate_exact(gen_ghz(1200))
    assert gc.isenabled()
    # A register at the recursion limit passes the register cap and runs
    # out of stack inside the paused gate loop.
    with pytest.raises(CapacityError, match="recursive gate application"):
        strategies.simulate_exact(gen_ghz(sys.getrecursionlimit()))
    assert gc.isenabled()


@contextmanager
def collector_state(enabled: bool):
    """Collector switched on or off inside the block, restored after it."""
    was_enabled = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_direct_apply_runs_no_collection():
    # H on the top qubit of a dense 14-qubit state sums both halves, which
    # builds about 16k nodes: with the collector on, that is hundreds of
    # generation-0 collections.  A collection counts if it starts while the
    # gate is building nodes, so one that the re-enabled collector runs
    # right after the gate does not.
    ctx = Context()
    state = ctx.from_dense(random_state(14, seed=3))
    started = ctx._next_uid
    uids = []

    def watch(phase, info):
        if phase == "start":
            uids.append(ctx._next_uid)

    with collector_state(True):
        gc.callbacks.append(watch)
        try:
            out = apply(state, Gate("H", (13,)))
        finally:
            gc.callbacks.remove(watch)
        assert gc.isenabled()
    ended = ctx._next_uid
    assert ended - started >= 10_000
    assert [u for u in uids if started < u < ended] == []
    assert out.norm() == pytest.approx(1.0)


@pytest.mark.parametrize("enabled", [True, False])
def test_apply_restores_collector_state(enabled):
    ctx = Context()
    with collector_state(enabled):
        apply(ctx.make_basis_state(3, "000"), Gate("H", (1,)))
        assert gc.isenabled() is enabled
        # _mv recurses once per level, so a 1,200-qubit register raises.
        deep = ctx.make_basis_state(1200, "0" * 1200)
        with pytest.raises(CapacityError):
            apply(deep, Gate("H", (0,)))
        assert gc.isenabled() is enabled
