"""Spans around the package's public functions and methods, kept in memory.

``Tracer.installed()`` swaps each traced name for a wrapper in the module
namespace it is called through, and puts the originals back on exit.  A
span is (name, start, end, parent): the parent is the span open when the
call began, so a layer's self time is its spans' durations minus the part
covered by their child spans.  Span names start with their layer:
``klucb.``, ``instances.``, ``policies.`` or ``harness.``.

One run of the ``elim-needle64`` workload opens about a million spans, so
they live in flat typed arrays rather than as objects.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

import rank1bandit.harness as harness_mod
import rank1bandit.instances as instances_mod
import rank1bandit.policies as policies_mod

LAYERS = ("klucb", "instances", "policies", "harness")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # every policy built through make_policy while installed
        self.policies: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _wrap_update(self, fn):
        """``Policy.update``, its span renamed ``policies.boundary`` when the
        public ``stage`` advanced during the call.  The stage is read inside
        the span, so the reads count against the policy layer."""
        upd, boundary = self._id("policies.update"), self._id("policies.boundary")
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(policy, arm, reward):
            idx = len(names)
            names.append(upd)
            parents.append(stack[-1])
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                stage = getattr(policy, "stage", None)
                fn(policy, arm, reward)
                if stage is not None and policy.stage != stage:
                    names[idx] = boundary
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _keep(self, make_policy):
        @functools.wraps(make_policy)
        def keeping(*args, **kwargs):
            policy = make_policy(*args, **kwargs)
            self.policies.append(policy)
            return policy

        return keeping

    @contextlib.contextmanager
    def installed(self):
        """Trace every public call the harness makes into the other layers."""
        env_cls, pol_cls = instances_mod.Environment, policies_mod.Policy
        patches = [
            (policies_mod, "kl_ucb_lower", self.wrap("klucb.kl_ucb_lower", policies_mod.kl_ucb_lower)),
            (policies_mod, "kl_ucb_upper", self.wrap("klucb.kl_ucb_upper", policies_mod.kl_ucb_upper)),
            (policies_mod, "kl_ucb_upper_many",
             self.wrap("klucb.kl_ucb_upper_many", policies_mod.kl_ucb_upper_many)),
            (harness_mod, "parse_instance_spec",
             self.wrap("instances.parse_instance_spec", harness_mod.parse_instance_spec)),
            (harness_mod, "compute_metrics",
             self.wrap("instances.compute_metrics", harness_mod.compute_metrics)),
            (env_cls, "__init__", self.wrap("instances.Environment", env_cls.__init__)),
            (env_cls, "step", self.wrap("instances.step", env_cls.step)),
            (harness_mod, "make_policy",
             self.wrap("policies.make_policy", self._keep(harness_mod.make_policy))),
            (pol_cls, "select", self.wrap("policies.select", pol_cls.select)),
            (pol_cls, "update", self._wrap_update(pol_cls.update)),
            (harness_mod, "run_one", self.wrap("harness.run_one", harness_mod.run_one)),
            (harness_mod, "run_many", self.wrap("harness.run_many", harness_mod.run_many)),
            (harness_mod, "write_trace_csv",
             self.wrap("harness.write_trace_csv", harness_mod.write_trace_csv)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def summary(self, leak: float = 0.0) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds.

        ``leak`` is the time each child span's own bookkeeping adds to its
        parent (see ``span_cost``); it is taken out of the parent's self time.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        children = np.bincount(parent[inner], minlength=len(dur))
        self_time = dur - covered - leak * children
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: {"calls": int(counts[i]), "total_s": float(totals[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, stem: Path, summary: dict) -> None:
        """``<stem>.npz`` holds every span; ``<stem>.json`` the per-name summary."""
        np.savez(
            stem.with_suffix(".npz"),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
        )
        stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")


def span_cost(n: int = 20_000, repeats: int = 5) -> float:
    """Seconds that tracing one call adds to the self time of its caller.

    The wrapper's work before its first and after its second clock reading
    falls in the caller's span; this times a loop of ``n`` calls to an empty
    function with and without the wrapper, and takes the difference.
    """

    def noop():
        pass

    def loop(fn):
        for _ in range(n):
            fn()

    tracer = Tracer()
    traced_noop, traced_loop = tracer.wrap("noop", noop), tracer.wrap("loop", loop)
    bare = []
    for _ in range(repeats):
        t = time.perf_counter()
        loop(noop)
        bare.append(time.perf_counter() - t)
        traced_loop(traced_noop)
    traced = tracer.summary()["loop"]["self_s"] / repeats
    return max(0.0, (traced - sum(bare) / repeats) / n)
