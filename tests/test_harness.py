"""Tests for the experiment harness: seeding, run loops, aggregation, CSV.

The seed mixer is checked against the published SplitMix64 reference
(first output from state 0 is 0xE220A8397B1DCDAF) and against an
independent re-implementation written here.  run_one is checked against
a from-scratch replication of the play loop built from the public
policy/environment pieces.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from rank1bandit.harness import (
    AggregateResult,
    ExperimentConfig,
    RegretTrace,
    default_checkpoints,
    derive_seed,
    load_config,
    read_trace_csv,
    resolve_jobs,
    run_many,
    run_one,
    write_trace_csv,
    _splitmix64,
)
from rank1bandit.instances import (
    Environment,
    needle_instance,
    parse_instance_spec,
    pbm_like_instance,
)
from rank1bandit.policies import Policy, UCB1Elim, make_policy

MASK = (1 << 64) - 1


def reference_splitmix64(x: int) -> int:
    # independent transcription of the published generator
    x = (x + 0x9E3779B97F4A7C15) & MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


class TestSeedDerivation:
    def test_published_vector(self):
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_matches_reference_chain(self):
        for master, run, stream, tag in [(0, 0, "env", 1), (12345, 7, "policy", 2)]:
            want = reference_splitmix64(
                reference_splitmix64(reference_splitmix64(master & MASK) ^ run) ^ tag
            )
            assert derive_seed(master, run, stream) == want

    def test_streams_distinct(self):
        seeds = {
            derive_seed(m, r, s)
            for m in (0, 1, 999)
            for r in range(20)
            for s in ("env", "policy")
        }
        assert len(seeds) == 3 * 20 * 2

    def test_unknown_stream(self):
        with pytest.raises(ValueError):
            derive_seed(0, 0, "reward")


class TestDefaultCheckpoints:
    def test_grid_size_contract(self):
        grid = default_checkpoints(100_000)
        assert len(grid) == 201
        assert grid[0] == 1
        assert grid[-1] == 100_000

    def test_strictly_increasing_within_range(self):
        for n in (5, 10, 137, 4096, 10**6):
            grid = default_checkpoints(n)
            assert grid[-1] == n
            assert grid[0] >= 1
            assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_small_horizon_collapses_to_every_step(self):
        assert default_checkpoints(5) == [1, 2, 3, 4, 5]

    def test_horizon_must_be_positive(self):
        assert default_checkpoints(1) == [1]
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            default_checkpoints(0)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(instance="needle:K=2,L=2,p=0.25,gap=0.5",
                               policy="ucb1", horizon=100)
        assert cfg.runs == 20
        assert cfg.master_seed == 0
        assert cfg.checkpoints is None

    def test_validation(self):
        good = dict(instance="needle:K=2,L=2,p=0.25,gap=0.5", policy="ucb1", horizon=100)
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "horizon": 4})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "runs": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "policy": "nope"})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "checkpoints": [5, 3]})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "checkpoints": [0, 3]})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "checkpoints": [3, 101]})

    def test_integer_fields(self):
        # any integer type is accepted and stored as int; bool is no count
        good = dict(instance="needle:K=2,L=2,p=0.25,gap=0.5", policy="ucb1", horizon=100)
        cfg = ExperimentConfig(**{**good, "horizon": np.int64(10), "runs": np.int32(2),
                                  "master_seed": np.uint64(7),
                                  "checkpoints": [np.int64(3), 10]})
        assert (cfg.horizon, cfg.runs, cfg.master_seed, cfg.checkpoints) == (10, 2, 7, [3, 10])
        assert all(type(x) is int for x in (cfg.horizon, cfg.runs, cfg.master_seed,
                                            *cfg.checkpoints))
        for field, bad in (("runs", True), ("master_seed", False), ("horizon", 10.0),
                           ("checkpoints", [True, 5]), ("runs", np.bool_(True))):
            with pytest.raises(ValueError, match="integer"):
                ExperimentConfig(**{**good, field: bad})

    @pytest.mark.parametrize("field, bad, message", [
        ("instance", 5, "instance must be a string, got 5"),
        ("instance", None, "instance must be a string, got None"),
        ("policy", ["ucb1"], r"policy must be a string, got \['ucb1'\]"),
        ("checkpoints", 5, "checkpoints must be a nonempty list of integers, got 5"),
        ("checkpoints", "abc", "checkpoints must be a nonempty list of integers, got 'abc'"),
        ("checkpoints", [], r"checkpoints must be a nonempty list of integers, got \[\]"),
        ("checkpoints", {"1": 1}, "checkpoints must be a nonempty list of integers, got {"),
    ], ids=["instance-int", "instance-null", "policy-list", "checkpoints-int",
            "checkpoints-str", "checkpoints-empty", "checkpoints-object"])
    def test_fields_of_the_wrong_type(self, field, bad, message, tmp_path):
        # given to the constructor or read from a file, each value is
        # refused before any run, naming the field
        raw = {"instance": "needle:K=2,L=2,p=0.25,gap=0.5", "policy": "ucb1",
               "horizon": 100, field: bad}
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig(**raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}"):
            load_config(path)

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "instance": "needle:K=2,L=2,p=0.25,gap=0.5",
            "policy": "rank1elimkl",
            "horizon": 500,
            "runs": 3,
            "master_seed": 9,
            "checkpoints": [1, 10, 500],
        }), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.policy == "rank1elimkl"
        assert cfg.checkpoints == [1, 10, 500]

    def test_load_config_rejects_unknown_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "instance": "needle:K=2,L=2,p=0.25,gap=0.5",
            "policy": "ucb1", "horizon": 500, "weird": 1,
        }), encoding="utf-8")
        with pytest.raises(ValueError, match="weird"):
            load_config(path)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"policy": "ucb1",', encoding="utf-8")
        with pytest.raises(ValueError, match="is not valid JSON"):
            load_config(path)

    def test_load_config_requires_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(["needle:K=2,L=2,p=0.25,gap=0.5", "ucb1", 500]),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="must contain a JSON object"):
            load_config(path)

    def test_load_config_requires_core_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"policy": "ucb1", "horizon": 500}), encoding="utf-8")
        with pytest.raises(ValueError, match="instance"):
            load_config(path)


def small_config(**over):
    base = dict(
        instance="needle:K=2,L=2,p=0.25,gap=0.5",
        policy="rank1elimkl",
        horizon=400,
        runs=3,
        master_seed=11,
        checkpoints=[1, 7, 100, 400],
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestRunOne:
    def test_matches_independent_replication(self):
        cfg = small_config(horizon=977, checkpoints=[1, 13, 500, 977])
        trace = run_one(cfg, run_index=1)

        inst = parse_instance_spec(cfg.instance)
        env = Environment(inst, np.random.default_rng(derive_seed(11, 1, "env")))
        pol = make_policy(cfg.policy, inst.K, inst.L, cfg.horizon,
                          np.random.default_rng(derive_seed(11, 1, "policy")))
        marks = {13: None, 1: None, 500: None, 977: None}
        pseudo, stoch = [], []
        for t in range(1, cfg.horizon + 1):
            arm = pol.select()
            pol.update(arm, env.step(arm[0], arm[1]))
            if t in marks:
                pseudo.append(env.cum_pseudo_regret)
                stoch.append(env.cum_stochastic_regret)
        assert env.steps == 977  # exact truncation at the horizon
        assert trace.steps == [1, 13, 500, 977]
        assert trace.cum_pseudo_regret == pseudo
        assert trace.cum_stochastic_regret == stoch

    def test_deterministic(self):
        cfg = small_config()
        a = run_one(cfg, 0)
        b = run_one(cfg, 0)
        assert a == b

    def test_negative_run_index(self):
        with pytest.raises(ValueError, match="run_index must be at least 0, got -1"):
            run_one(small_config(), -1)

    def test_seed_fields(self):
        trace = run_one(small_config(), 2)
        assert trace.run_index == 2
        assert trace.env_seed == derive_seed(11, 2, "env")
        assert trace.policy_seed == derive_seed(11, 2, "policy")

    def test_cumulative_regret_monotone(self):
        cfg = small_config(policy="ucb1", horizon=2000, checkpoints=None)
        trace = run_one(cfg, 0)
        diffs = np.diff(trace.cum_pseudo_regret)
        assert (diffs >= -1e-12).all()

    def test_degenerate_instance_zero_regret(self, tmp_path):
        from rank1bandit.instances import Rank1Instance, save_instance
        path = tmp_path / "one.json"
        save_instance(Rank1Instance(u_bar=[1.0], v_bar=[1.0]), path)
        cfg = small_config(instance=str(path), policy="ucb1", horizon=50,
                           checkpoints=[50])
        trace = run_one(cfg, 0)
        assert trace.cum_pseudo_regret == [0.0]
        assert trace.cum_stochastic_regret == [0.0]


class TestRunMany:
    def test_aggregates_shape_and_bounds(self):
        cfg = small_config()
        res = run_many(cfg)
        assert res.steps == [1, 7, 100, 400]
        assert len(res.mean_pseudo_regret) == 4
        traces = [run_one(cfg, r) for r in range(3)]
        for k in range(4):
            vals = [t.cum_pseudo_regret[k] for t in traces]
            assert min(vals) - 1e-12 <= res.mean_pseudo_regret[k] <= max(vals) + 1e-12
            want_se = np.std(vals, ddof=1) / math.sqrt(3)
            assert res.stderr_pseudo_regret[k] == pytest.approx(want_se, rel=1e-12)

    def test_single_run_zero_stderr(self):
        res = run_many(small_config(runs=1))
        assert all(s == 0.0 for s in res.stderr_pseudo_regret)
        assert all(s == 0.0 for s in res.stderr_stochastic_regret)

    def test_changing_run_count_preserves_prefix_runs(self):
        # run r's trace depends only on (master_seed, r), not on how many
        # runs are requested
        t0_alone = run_one(small_config(runs=1), 0)
        t0_in_three = run_one(small_config(runs=3), 0)
        assert t0_alone == t0_in_three

    def test_master_seed_changes_traces(self):
        a = run_one(small_config(master_seed=1), 0)
        b = run_one(small_config(master_seed=2), 0)
        assert a.cum_pseudo_regret != b.cum_pseudo_regret

    def test_parallel_matches_sequential(self):
        cfg = small_config(runs=4)
        seq = run_many(cfg, jobs=1)
        par = run_many(cfg, jobs=2)
        assert seq.steps == par.steps
        assert seq.mean_pseudo_regret == par.mean_pseudo_regret
        assert seq.stderr_stochastic_regret == par.stderr_stochastic_regret

    def test_jobs_must_be_an_integer(self):
        # a float used to fail inside the process pool, and True ran as 1 job
        for jobs in (1.5, True):
            with pytest.raises(ValueError, match=f"jobs must be an integer, got {jobs!r}"):
                run_many(small_config(runs=2), jobs=jobs)
        assert run_many(small_config(runs=2), jobs=np.int64(1)).steps

    def test_jobs_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_many(small_config(), jobs=0)

    def test_metrics_echoed(self):
        res = run_many(small_config())
        assert res.metrics is not None
        assert res.metrics.mu == pytest.approx(0.5)
        assert res.config is not None and res.config.policy == "rank1elimkl"


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        res = run_many(small_config())
        path = tmp_path / "out.csv"
        write_trace_csv(res, path)
        back = read_trace_csv(path)
        assert back.steps == res.steps
        assert back.mean_pseudo_regret == res.mean_pseudo_regret
        assert back.stderr_pseudo_regret == res.stderr_pseudo_regret
        assert back.mean_stochastic_regret == res.mean_stochastic_regret
        assert back.stderr_stochastic_regret == res.stderr_stochastic_regret

    def test_write_is_reproducible_bytes(self, tmp_path):
        res = run_many(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(res, p1)
        write_trace_csv(res, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header(self, tmp_path):
        res = run_many(small_config())
        path = tmp_path / "h.csv"
        write_trace_csv(res, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == ("step,mean_pseudo_regret,stderr_pseudo_regret,"
                         "mean_stochastic_regret,stderr_stochastic_regret")

    def test_failed_write_keeps_old_file(self, tmp_path):
        res = run_many(small_config())
        path = tmp_path / "out.csv"
        write_trace_csv(res, path)
        before = path.read_bytes()

        class Unwritable(float):
            def __format__(self, spec):
                raise RuntimeError("write failed")

        broken = run_many(small_config(master_seed=12))
        broken.mean_pseudo_regret[2] = Unwritable()
        with pytest.raises(RuntimeError, match="write failed"):
            write_trace_csv(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_empty_checkpoints_header_only(self, tmp_path):
        res = AggregateResult([], [], [], [], [])
        path = tmp_path / "e.csv"
        write_trace_csv(res, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1

    def test_read_rejects_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="is empty; expected a CSV header"):
            read_trace_csv(path)

    def test_read_rejects_another_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("step,mean,stderr\n1,0.5,0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unexpected header"):
            read_trace_csv(path)

    def test_read_rejects_a_short_row(self, tmp_path):
        res = run_many(small_config())
        path = tmp_path / "short.csv"
        write_trace_csv(res, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("500,1.0,0.0\n")
        with pytest.raises(ValueError, match="expected 5 columns, got 3"):
            read_trace_csv(path)


def _config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**{"instance": "needle:K=2,L=2,p=0.25,gap=0.5",
                               "policy": "ucb1", "horizon": 100, "runs": 1, **fields})


def _step(i, j) -> int:
    env = Environment(needle_instance(10, 10, 0.25, 0.25, 0.5, 0.5), np.random.default_rng(0))
    return env.step(i, j)


# every scalar integer the package takes: the name its errors give, its
# lower bound, and a call passing x in its place that returns what was
# made of x (the stored value where one is kept)
INTEGER_INPUTS = {
    "Policy.K": ("K", 1, lambda x: Policy(x, 2, 100, np.random.default_rng(0)).K),
    "Policy.L": ("L", 1, lambda x: Policy(2, x, 100, np.random.default_rng(0)).L),
    "Policy.horizon": ("horizon", 5, lambda x: Policy(2, 2, x, np.random.default_rng(0)).horizon),
    "BlockPolicy.plan": ("limit", 1, lambda x: [
        a.tolist() for a in UCB1Elim(2, 2, 100, np.random.default_rng(0)).plan(x)]),
    "needle_instance.K": ("K", 1, lambda x: needle_instance(x, 2, 0.25, 0.25, 0.5, 0.5).K),
    "needle_instance.L": ("L", 1, lambda x: needle_instance(2, x, 0.25, 0.25, 0.5, 0.5).L),
    "pbm_like_instance.K": ("K", 1, lambda x: pbm_like_instance(x, 2, 0.85, 0.6).K),
    "pbm_like_instance.L": ("L", 1, lambda x: pbm_like_instance(2, x, 0.85, 0.6).L),
    "Environment.step.i": ("row index", None, lambda x: _step(x, 0)),
    "Environment.step.j": ("column index", None, lambda x: _step(0, x)),
    "ExperimentConfig.horizon": ("horizon", 5, lambda x: _config(horizon=x).horizon),
    "ExperimentConfig.runs": ("runs", 1, lambda x: _config(runs=x).runs),
    "ExperimentConfig.master_seed": ("master_seed", None, lambda x: _config(master_seed=x).master_seed),
    "ExperimentConfig.checkpoints": ("each checkpoint", None,
                                     lambda x: _config(checkpoints=[x]).checkpoints[0]),
    "derive_seed.master_seed": ("master_seed", None, lambda x: derive_seed(x, 0, "env")),
    "derive_seed.run_index": ("run_index", None, lambda x: derive_seed(0, x, "env")),
    "run_one": ("run_index", 0, lambda x: run_one(_config(horizon=5), x).run_index),
    "default_checkpoints": ("horizon", 1, lambda x: default_checkpoints(x)[-1]),
    "resolve_jobs": ("jobs", 1, resolve_jobs),
}


@pytest.mark.parametrize("entry", list(INTEGER_INPUTS))
def test_every_integer_input_follows_one_rule(entry):
    # a bool is no count, and a float, even a whole one, is no integer;
    # any integer type is taken and kept as int
    name, low, call = INTEGER_INPUTS[entry]
    for bad in (True, np.bool_(True), 2.5, 8.0, np.float64(8.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(bad)
    if low is not None:
        with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {low - 1}$"):
            call(low - 1)
    got, want = call(np.int64(8)), call(8)
    assert got == want and type(got) is type(want)
