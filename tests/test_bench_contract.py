"""The benchmark's hold on the package, checked before a benchmark run.

``perfbench/`` drives the package from outside it: its traced mode swaps
the names it times for wrappers in the package's module namespaces, and
its correctness pass grades the KL solvers on a grid of its own and
replays every policy in a reference loop of its own calls.  A change that
removes a traced name, a bound that fails that grading, or an input rule
that the reference loop's calls break would otherwise show only as a
failed or incorrect benchmark run.  The benchmark's files are loaded from
the repository as they are.
"""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

import pytest

import rank1bandit.policies as policies
from rank1bandit.policies import POLICIES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("checks"), _load("tracing")


def test_tracer_installs_and_restores(perfbench):
    _, tracing = perfbench
    names = ("kl_ucb_lower", "kl_ucb_upper", "kl_ucb_upper_many")
    before = {name: policies.__dict__[name] for name in names}
    with tracing.Tracer().installed():
        assert all(policies.__dict__[name] is not before[name] for name in names)
    assert {name: policies.__dict__[name] for name in names} == before


def test_klucb_check(perfbench):
    checks, _ = perfbench
    # (solver calls attempted, calls failed): both scalar bounds at every
    # point of the 11 x 6 x 5 grid, and one array call per budget
    assert checks.check_klucb() == (665, 0)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_reference_run(perfbench, policy):
    # workloads.py's cells cannot be loaded by path (its frozen dataclasses
    # need the module in sys.modules), so a cell is built here; 3,000 steps
    # cross a stage boundary of the elimination policies on 4x4, and klucb,
    # which re-solves every arm's bound each step, plays 500
    checks, _ = perfbench
    cell = types.SimpleNamespace(policy=policy, instance="needle:K=4,L=4,p=0.25,gap=0.5",
                                 ref_horizon=500 if policy == "klucb" else 3000)
    played, best = checks.reference_run(cell, 7, 1)
    assert played.t == cell.ref_horizon and best == (0, 0)
    if hasattr(played, "stage"):
        assert played.stage >= 1
