"""Outside-in tracing of ddqsim for the benchmark's traced runs.

Spans are recorded by wrapping public module attributes of ``ddqsim`` from
here, so the program itself carries no tracing code.  Each span holds its
name, start, end, parent span and run id (one run per root span, i.e. per
simulate call or CLI invocation).  Spans stay in memory and are written out
when the worker ends.  Cache lookups come from counting caches swapped onto
every ``Context`` the traced run creates; the counts go to tallies on the
tracer, so no context outlives its run.
"""
from __future__ import annotations

import json
import time

from ddqsim import approx, cli, ops, strategies
from ddqsim.dd import BoundedCache, Context, StateDD

perf_counter = time.perf_counter


class CountingCache(BoundedCache):
    """BoundedCache that adds its lookups and hits to ``tally``."""

    __slots__ = ("tally",)

    def __init__(self, size: int, tally: list[int]):
        super().__init__(size)
        self.tally = tally

    def get(self, key):
        tally = self.tally
        tally[0] += 1
        got = BoundedCache.get(self, key)
        if got is not None:
            tally[1] += 1
        return got


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries."""

    def __init__(self):
        # One row per span: [span id, parent id, name, run id, start, end].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._runs = 0
        # [lookups, hits] per operation cache, over every context.
        self.caches = {"apply_cache": [0, 0], "add_cache": [0, 0]}
        self.gc_reclaimed = 0
        self.unique_table_peak = 0
        self.weight_entries_peak = 0

    def wrap(self, name: str, fn, on_result=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self._runs += 1
                run = self._runs
            else:
                run = spans[parent][3]
            row = [len(spans), parent, name, run, 0.0, 0.0]
            spans.append(row)
            stack.append(row[0])
            row[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[5] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def new_context(self) -> Context:
        """A Context whose operation caches count their lookups."""
        ctx = Context()
        size = len(ctx.apply_cache._slots)
        ctx.apply_cache = CountingCache(size, self.caches["apply_cache"])
        ctx.add_cache = CountingCache(size, self.caches["add_cache"])
        return ctx

    def _sample(self, ctx: Context) -> None:
        self.unique_table_peak = max(self.unique_table_peak,
                                     ctx.unique_table_size())
        self.weight_entries_peak = max(self.weight_entries_peak,
                                       len(ctx._weights))

    def install(self) -> None:
        """Wrap the layer entry points for the rest of this process."""
        wrap = self.wrap
        strategies.Context = self.new_context
        strategies.apply = wrap(
            "ops.apply", strategies.apply,
            lambda args, state: self._sample(state.context))
        strategies.approximate_round = wrap(
            "approx.round", strategies.approximate_round,
            lambda args, outcome: self._sample(outcome.state.context))
        approx.node_contributions = wrap("approx.contributions",
                                         approx.node_contributions)
        approx.remove_nodes = wrap("approx.remove", approx.remove_nodes)
        ops.gate_dd = wrap("ops.gate_dd", ops.gate_dd)
        StateDD.node_count = wrap("dd.node_count", StateDD.node_count)

        collect = Context.collect_garbage

        def sampled_collect(ctx):
            self._sample(ctx)
            return collect(ctx)

        def reclaimed(args, count):
            self.gc_reclaimed += count

        Context.collect_garbage = wrap("dd.gc", sampled_collect, reclaimed)
        cli.parse_qasm = wrap("circuit.parse", cli.parse_qasm)
        cli.gen_ghz = wrap("circuit.generate", cli.gen_ghz)
        cli.main = wrap("cli.main", cli.main)

    def write(self, path) -> None:
        keys = ("span", "parent", "name", "run", "start", "end")
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time and call count, and the worst root-span mismatch.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  The mismatch check adds up the self times of
    every span under each root and compares the sum with the root's
    duration; the largest relative gap over all roots is returned.
    """
    children: dict[int, list] = {}
    for row in spans:
        if row[1] is not None:
            children.setdefault(row[1], []).append(row)
    self_s: dict[int, float] = {}
    for row in spans:
        start, end = row[4], row[5]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(row[0], ()), key=lambda r: r[4]):
            lo = max(child[4], cursor)
            hi = min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_s[row[0]] = (end - start) - covered
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for row in spans:
        by_name[row[2]] = by_name.get(row[2], 0.0) + self_s[row[0]]
        calls[row[2]] = calls.get(row[2], 0) + 1
    below: dict[int, float] = {}
    worst = 0.0
    for row in reversed(spans):  # a child is always recorded after its parent
        tree = self_s[row[0]] + below.get(row[0], 0.0)
        if row[1] is not None:
            below[row[1]] = below.get(row[1], 0.0) + tree
            continue
        duration = row[5] - row[4]
        if duration > 0:
            worst = max(worst, abs(tree - duration) / duration)
    return by_name, calls, worst
