"""CLI tests: exit codes, file outputs, stream discipline, reproducibility.

Exit-code contract: 0 success, 1 domain/runtime error, 2 usage error.
Informational chatter goes to stderr; stdout carries only the metrics
report (the one subcommand whose output is meant for piping).
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np

from rank1bandit.cli import build_parser, main
from rank1bandit.harness import default_checkpoints
from rank1bandit.instances import Rank1Instance, load_instance, save_instance

NEEDLE_2X2 = "needle:K=2,L=2,p=0.25,gap=0.5"


def readme_commands() -> list[str]:
    """Every ``rank1bandit ...`` command in the README's sh blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rank1bandit "):
                commands.append(line)
    return commands


def test_readme_cli_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 4
    for command in commands:
        argv = shlex.split(command)[1:]
        build_parser().parse_args(argv)


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-instance" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


class TestGenInstance:
    def test_needle_file_contents(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = main(["gen-instance", "--instance", "needle:K=32,L=32,p=0.25,gap=0.5",
                     "--out", str(out)])
        assert code == 0
        inst = load_instance(out)
        assert inst.K == 32 and inst.L == 32
        assert inst.u_bar[0] == 0.75
        assert inst.u_bar[1] == 0.25
        # stdout stays clean for piping
        assert capsys.readouterr().out == ""

    def test_pbm_like_file_contents(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["gen-instance", "--instance", "pbm-like:K=4,L=4,head_mass=0.8,decay=0.5",
                     "--out", str(out)])
        assert code == 0
        inst = load_instance(out)
        assert inst.u_bar.tolist() == [0.8, 0.4, 0.2, 0.1]

    def test_file_path_round_trips(self, tmp_path):
        src, out = tmp_path / "src.json", tmp_path / "out.json"
        save_instance(Rank1Instance(u_bar=[0.3, 0.7, 0.1], v_bar=[0.25, 1.0]), src)
        assert main(["gen-instance", "--instance", str(src), "--out", str(out)]) == 0
        inst = load_instance(out)
        assert inst.u_bar.tolist() == [0.3, 0.7, 0.1]
        assert inst.v_bar.tolist() == [0.25, 1.0]

    def test_missing_out_dir_names_it(self, tmp_path, capsys):
        out = tmp_path / "missing" / "inst.json"
        code = main(["gen-instance", "--instance", NEEDLE_2X2, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "missing") in err and ".tmp" not in err

    def test_out_that_is_a_directory_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        out.mkdir()
        code = main(["gen-instance", "--instance", NEEDLE_2X2, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot write {out}: it is a directory" in err and ".tmp" not in err
        assert list(tmp_path.rglob("*")) == [out]

    def test_missing_instance_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-instance", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--instance" in capsys.readouterr().err

    def test_spec_without_k_is_domain_error(self, tmp_path, capsys):
        code = main(["gen-instance", "--instance", "needle:L=8,p=0.25,gap=0.5",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "requires K=<int>" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_out_of_range_params_domain_error(self, tmp_path, capsys):
        code = main(["gen-instance", "--instance", "needle:K=8,L=8,p=0.25,gap=0.5,delta_u=0.9",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()
        assert not (tmp_path / "x.json").exists()


class TestMetrics:
    def test_inline_spec_report(self, capsys):
        code = main(["metrics", "--instance", "needle:K=32,L=32,p=0.25,gap=0.5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "K = 32" in lines
        assert "L = 32" in lines
        assert "mu = 0.265625" in lines
        assert "gamma = 0.265625" in lines
        assert "p_max = 0.75" in lines
        assert "best_row = 0" in lines
        assert "best_col = 0" in lines
        assert "best_value = 0.5625" in lines
        assert "min_row_gap = 0.5" in lines

    def test_file_path_report(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        save_instance(Rank1Instance(u_bar=[0.3, 0.3], v_bar=[0.75, 0.25]), path)
        assert main(["metrics", "--instance", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "min_row_gap = inf" in lines
        assert "min_col_gap = 0.5" in lines

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["metrics", "--instance", str(tmp_path / "absent.json")])
        assert code == 1

    def test_repeated_spec_key_exits_one(self, capsys):
        code = main(["metrics", "--instance", "needle:K=8,K=3,L=2,p=0.25,gap=0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeats key 'K'" in captured.err


class TestRun:
    def run_flags(self, out, extra=()):
        return [
            "run", "--instance", NEEDLE_2X2, "--policy", "ucb1",
            "--horizon", "300", "--runs", "2", "--seed", "7",
            "--out", str(out), *extra,
        ]

    def test_writes_default_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(self.run_flags(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(default_checkpoints(300))
        assert lines[0].startswith("step,mean_pseudo_regret")
        captured = capsys.readouterr()
        assert captured.out == ""  # progress goes to stderr only
        assert str(out) in captured.err

    def test_byte_identical_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.run_flags(a)) == 0
        assert main(self.run_flags(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.run_flags(a, extra=["--jobs", "1"])) == 0
        assert main(self.run_flags(b, extra=["--jobs", "2"])) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_policy_usage_error(self, tmp_path, capsys):
        code = main([
            "run", "--instance", NEEDLE_2X2, "--policy", "thompson",
            "--horizon", "300", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_short_horizon_domain_error(self, tmp_path, capsys):
        code = main([
            "run", "--instance", NEEDLE_2X2, "--policy", "ucb1",
            "--horizon", "3", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    def test_bad_instance_spec_domain_error(self, tmp_path, capsys):
        code = main([
            "run", "--instance", "needle:K=2", "--policy", "ucb1",
            "--horizon", "300", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1


    def test_missing_out_dir_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_many called")

        monkeypatch.setattr("rank1bandit.cli.run_many", no_run)
        out = tmp_path / "missing" / "x.csv"
        assert main(self.run_flags(out)) == 1
        err = capsys.readouterr().err
        assert str(out) in err and str(tmp_path / "missing") in err
        assert ".tmp" not in err and "running" not in err
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_a_directory_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_many called")

        monkeypatch.setattr("rank1bandit.cli.run_many", no_run)
        out = tmp_path / "x.csv"
        out.mkdir()
        assert main(self.run_flags(out)) == 1
        err = capsys.readouterr().err
        assert f"cannot write {out}: it is a directory" in err
        assert ".tmp" not in err and "running" not in err
        assert list(tmp_path.rglob("*")) == [out]


class TestSweep:
    def sweep_flags(self, outdir, sizes="2", policies="ucb1", extra=()):
        return [
            "sweep", "--sizes", sizes, "--policies", policies,
            "--horizon", "120", "--runs", "1", "--seed", "3",
            "--out-dir", str(outdir), *extra,
        ]

    def test_single_cell(self, tmp_path, capsys):
        assert main(self.sweep_flags(tmp_path / "sw")) == 0
        files = sorted(p.name for p in (tmp_path / "sw").iterdir())
        assert files == ["ucb1_2x2.csv"]

    def test_cross_product(self, tmp_path):
        code = main(self.sweep_flags(tmp_path / "sw", sizes="2,3",
                                     policies="rank1elimkl,ucb1"))
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "sw").iterdir())
        assert files == [
            "rank1elimkl_2x2.csv", "rank1elimkl_3x3.csv",
            "ucb1_2x2.csv", "ucb1_3x3.csv",
        ]

    def test_duplicate_size_deduplicated_with_warning(self, tmp_path, capsys):
        assert main(self.sweep_flags(tmp_path / "sw", sizes="2,2")) == 0
        err = capsys.readouterr().err
        assert "duplicate" in err.lower()
        files = sorted(p.name for p in (tmp_path / "sw").iterdir())
        assert files == ["ucb1_2x2.csv"]

    def test_cell_matches_equivalent_run(self, tmp_path):
        # a sweep cell is exactly a run with the same seed and derived instance
        assert main(self.sweep_flags(tmp_path / "sw")) == 0
        solo = tmp_path / "solo.csv"
        assert main([
            "run", "--instance", NEEDLE_2X2, "--policy", "ucb1",
            "--horizon", "120", "--runs", "1", "--seed", "3",
            "--out", str(solo),
        ]) == 0
        sweep_csv = tmp_path / "sw" / "ucb1_2x2.csv"
        assert sweep_csv.read_bytes() == solo.read_bytes()

    def test_unknown_policy_usage_error(self, tmp_path, capsys):
        code = main(self.sweep_flags(tmp_path / "sw", policies="nope"))
        assert code == 2

    def test_malformed_sizes_usage_error(self, tmp_path, capsys):
        code = main(self.sweep_flags(tmp_path / "sw", sizes="2,x"))
        assert code == 2

    def test_bad_later_size_runs_no_cell(self, tmp_path, capsys):
        code = main(self.sweep_flags(tmp_path / "sw", sizes="2,0"))
        assert code == 1
        assert "K must be at least 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []
        assert not (tmp_path / "sw").exists()

    def test_short_horizon_creates_no_directory(self, tmp_path, capsys):
        flags = self.sweep_flags(tmp_path / "sw")
        flags[flags.index("--horizon") + 1] = "3"
        assert main(flags) == 1
        assert list(tmp_path.rglob("*.csv")) == []
        assert not (tmp_path / "sw").exists()

    def test_bad_job_count_creates_no_directory(self, tmp_path, capsys):
        assert main(self.sweep_flags(tmp_path / "sw", extra=["--jobs", "0"])) == 1
        err = capsys.readouterr().err
        assert "jobs must be at least 1, got 0" in err
        assert "[1/1]" not in err
        assert not (tmp_path / "sw").exists()

    def test_cell_path_that_is_a_directory_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_many called")

        monkeypatch.setattr("rank1bandit.cli.run_many", no_run)
        blocked = tmp_path / "sw" / "ucb1_3x3.csv"
        blocked.mkdir(parents=True)
        assert main(self.sweep_flags(tmp_path / "sw", sizes="2,3")) == 1
        err = capsys.readouterr().err
        assert f"cannot write {blocked}: it is a directory" in err
        assert "[1/2]" not in err
        assert list(tmp_path.rglob("*.csv")) == [blocked]
