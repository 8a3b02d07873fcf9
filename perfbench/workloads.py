"""The benchmark's workloads: which cells each one runs, and why.

A cell is one ``ExperimentConfig`` minus its seed: a policy on an instance
at a horizon, with a run count.  Every workload process runs its cells in
order through ``run_many`` and writes one CSV per cell.  The master seed of
every cell is the benchmark's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

NEEDLE64 = "needle:K=64,L=64,p=0.25,gap=0.5"
# mu = 0.13: the pbm-like instance of acceptance criterion 9
PBM16 = "pbm-like:K=16,L=16,head_mass=0.85,decay=0.5915"
NEEDLE1024 = "needle:K=1024,L=1024,p=0.25,gap=0.5"


@dataclass(frozen=True)
class Cell:
    policy: str
    instance: str
    grid: str
    horizon: int
    runs: int
    # horizon of the independent reference simulation; on 64x64 it crosses
    # the first stage boundary of the elimination policies
    ref_horizon: int

    @property
    def steps(self) -> int:
        return self.horizon * self.runs

    @property
    def csv_name(self) -> str:
        return f"{self.policy}_{self.grid}.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    cells: tuple[Cell, ...]
    # smallest stage every elimination policy must reach within the horizon
    min_stage: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # The per-step Python loop: Environment.step, select/update and the
        # harness loop.  120,000 steps cross two Rank1Elim stage boundaries
        # (stage 1 ends by step 95,872 with nothing eliminated).
        Workload(
            name="elim-needle64",
            jobs=1,
            min_stage=2,
            cells=tuple(
                Cell(p, NEEDLE64, "64x64", horizon=120_000, runs=1, ref_horizon=25_000)
                for p in ("rank1elimkl", "rank1elim", "ucb1elim")
            ),
        ),
        # UCB1's K*L index pass and the vectorized KL solver; no stages.
        Workload(
            name="flat-pbm16",
            jobs=1,
            cells=(
                Cell("ucb1", PBM16, "16x16", horizon=100_000, runs=1, ref_horizon=5_000),
                Cell("klucb", PBM16, "16x16", horizon=1_000, runs=1, ref_horizon=400),
            ),
        ),
        # Wide K+L draws per step, the O(K*L) tables built at set-up and the
        # process fan-out; the horizon stays below the first stage boundary.
        Workload(
            name="wide-needle1024",
            jobs=2,
            cells=tuple(
                Cell(p, NEEDLE1024, "1024x1024", horizon=10_000, runs=4, ref_horizon=2_000)
                for p in ("rank1elimkl", "ucb1elim")
            ),
        ),
    )
}
