"""Golden-trace oracle: frozen SHA-256 digests of whole experiments.

Each cell runs every policy in ``POLICIES`` through ``run_many`` at
jobs=1 and hashes the bytes ``write_trace_csv`` writes.  For the
elimination policies it also keeps every run's ``stage_log`` (stage,
step, observation target and survivors at each boundary), captured from
the policies ``run_one`` builds through ``make_policy``.

The fixtures in ``tests/golden/traces.json`` were produced once and are
not meant to change: a refactor that moves a digest or a stage record
has changed behaviour.  To write them for a new cell list run

    PYTHONPATH=src python3 tests/test_golden.py --write

Cells: needle 4x4, needle 8x8 and pbm-like 8x8 at horizon 10^4 (10^3 for
the slow flat KL policy), two runs each, which crosses two stage
boundaries of the elimination policies; plus edge cells with K=1 and
L=1 (horizon 2000, 500 for the flat KL policy), a horizon shorter than one elimination round, and a horizon that ends
exactly on a stage boundary (needle 4x4 at n = 872 = 8 * ceil(16 ln 872)).
The block policies also run the needle at 64x64, horizon 120,000, past
two stage boundaries (one round of ``ucb1elim``): the only cells with
K+L above 16, so the only ones whose blocks ``play`` draws by skip-ahead.
``--write`` prints to stderr, as ``moved: <file> <key>``, every fixture key
whose value differs from the file it overwrites.

``tests/golden/klucb.json`` freezes the KL solver the same way: the
SHA-256 of ``float.hex`` of every output of ``kl_ucb_upper``,
``kl_ucb_lower`` and ``kl_ucb_upper_many`` over a grid that holds the
degenerate means 0 and 1, a zero budget, budgets past delta/pulls =
36.74 (where the upper bound of mean 0 rounds to 1) and the stage-0
means S/188 of a run at horizon 120,000.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import rank1bandit.harness as harness
from rank1bandit.harness import ExperimentConfig, run_many, write_trace_csv
from rank1bandit.klucb import kl_ucb_lower, kl_ucb_upper, kl_ucb_upper_many
from rank1bandit.policies import POLICIES

GOLDEN = Path(__file__).resolve().parent / "golden" / "traces.json"
KL_GOLDEN = GOLDEN.parent / "klucb.json"
MASTER_SEED = 2017

NEEDLE4 = "needle:K=4,L=4,p=0.25,gap=0.5"
NEEDLE8 = "needle:K=8,L=8,p=0.25,gap=0.5"
PBM8 = "pbm-like:K=8,L=8,head_mass=0.85,decay=0.6"
NEEDLE64 = "needle:K=64,L=64,p=0.25,gap=0.5"


def _cells() -> list[tuple[str, str, int]]:
    cells = []
    for policy in sorted(POLICIES):
        # the flat KL policy costs about 0.1 ms a step at 16x16 (2-core x86-64)
        horizon, edge = (1_000, 500) if policy == "klucb" else (10_000, 2_000)
        for instance in (NEEDLE4, NEEDLE8, PBM8):
            cells.append((policy, instance, horizon))
        cells.append((policy, "needle:K=1,L=4,p=0.25,gap=0.5", edge))
        cells.append((policy, "needle:K=4,L=1,p=0.25,gap=0.5", edge))
        # one Rank1Elim round on 8x8 is 16 steps
        cells.append((policy, NEEDLE8, 10))
        cells.append((policy, NEEDLE4, 872))
        if hasattr(POLICIES[policy], "plan"):
            # the elimination stages end at steps 24,064 and 95,872, and
            # ucb1elim's round 0 at 98,304
            cells.append((policy, NEEDLE64, 120_000))
    return cells


def _cell_id(cell: tuple[str, str, int]) -> str:
    policy, instance, horizon = cell
    return f"{policy}|{instance}|{horizon}"


def _stage_log(policy) -> list[list]:
    return [[r.stage, r.steps, r.n_obs, list(r.rows), list(r.cols)] for r in policy.stage_log]


def play_cell(cell, tmp_dir: Path) -> dict:
    """Run one cell at jobs=1; return its CSV digest and stage logs."""
    policy_name, instance, horizon = cell
    built = []
    original = harness.make_policy

    def keeping(*args, **kwargs):
        pol = original(*args, **kwargs)
        built.append(pol)
        return pol

    harness.make_policy = keeping
    try:
        config = ExperimentConfig(instance=instance, policy=policy_name, horizon=horizon,
                                  runs=2, master_seed=MASTER_SEED)
        result = run_many(config, jobs=1)
    finally:
        harness.make_policy = original
    path = tmp_dir / "trace.csv"
    write_trace_csv(result, path)
    out = {"csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert len(built) == 2
    if hasattr(built[0], "stage_log"):
        out["stage_logs"] = [_stage_log(p) for p in built]
    return out


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_cell():
    assert sorted(_load()) == sorted(_cell_id(c) for c in _cells())


@pytest.mark.parametrize("cell", _cells(), ids=_cell_id)
def test_golden_trace(cell, tmp_path):
    want = _load()[_cell_id(cell)]
    got = play_cell(cell, tmp_path)
    assert got.get("stage_logs") == want.get("stage_logs")
    assert got["csv_sha256"] == want["csv_sha256"]


def _kl_grid() -> tuple[list[float], list[int], list[float]]:
    log_n = math.log(120_000)  # stage 0 then observes ceil(16 ln n) = 188 times
    mus = [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53]
    mus += [s / 188 for s in range(189)]
    mus += np.random.default_rng(2017).random(300).tolist()
    pulls = [1, 3, 188, 752, 5000]
    # 40 and 200,001 put delta / pulls past 36.74 for every count
    deltas = [0.0, 0.3, log_n + 3.0 * math.log(log_n), 19.4, 40.0, 200_001.0]
    return mus, pulls, deltas


def _hex_digest(values) -> str:
    return hashlib.sha256("\n".join(float.hex(float(x)) for x in values).encode()).hexdigest()


def kl_digests() -> dict:
    """Digests of the three solvers over the grid, deltas outermost."""
    mus, pulls, deltas = _kl_grid()
    out = {
        name: _hex_digest(solve(m, n, d) for d in deltas for n in pulls for m in mus)
        for name, solve in (("kl_ucb_upper", kl_ucb_upper), ("kl_ucb_lower", kl_ucb_lower))
    }
    mu_col = np.tile(mus, len(pulls))
    n_col = np.repeat(np.array(pulls, dtype=float), len(mus))
    out["kl_ucb_upper_many"] = _hex_digest(
        x for d in deltas for x in kl_ucb_upper_many(mu_col, n_col, d).tolist())
    return out


def test_kl_solver_bits():
    assert kl_digests() == json.loads(KL_GOLDEN.read_text(encoding="utf-8"))


def _write_reporting_moves(path: Path, fixtures: dict) -> None:
    """Write ``fixtures`` to ``path``, printing to stderr every key whose
    value differs from the file's, or that the file lacks or has alone."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key in sorted(old.keys() | fixtures.keys()):
        if old.get(key) != fixtures.get(key):
            print(f"moved: {path.name} {key}", file=sys.stderr)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _write() -> None:
    import tempfile

    fixtures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cell in _cells():
            fixtures[_cell_id(cell)] = play_cell(cell, Path(tmp))
            print(_cell_id(cell), fixtures[_cell_id(cell)]["csv_sha256"][:16], file=sys.stderr)
    _write_reporting_moves(GOLDEN, fixtures)
    _write_reporting_moves(KL_GOLDEN, kl_digests())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    _write()
