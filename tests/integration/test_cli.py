"""Integration tests for the command-line interface (in-process)."""

import json

import pytest

from repro.cli import main
from repro.generation import gap_taskset
from repro.model import dump_taskset


@pytest.fixture
def taskset_file(tmp_path):
    path = tmp_path / "gap.json"
    dump_taskset(gap_taskset(), path)
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    from repro.model import TaskSet

    path = tmp_path / "bad.json"
    dump_taskset(TaskSet.of((1, 1, 2), (1, 1, 2)), path)
    return str(path)


class TestAnalyze:
    def test_default_test(self, taskset_file, capsys):
        assert main(["analyze", taskset_file]) == 0
        assert "all-approx" in capsys.readouterr().out

    def test_all_tests_table(self, taskset_file, capsys):
        assert main(["analyze", taskset_file, "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("devi", "dynamic", "processor-demand", "qpa"):
            assert name in out
        assert "partitioned-edf" not in out  # needs --cores

    def test_all_with_cores_includes_multiprocessor_tests(
        self, taskset_file, capsys
    ):
        assert main(["analyze", taskset_file, "--all", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("partitioned-edf", "global-edf-density", "global-edf-gfb",
                      "devi", "processor-demand"):
            assert name in out

    def test_superpos_requires_level(self, taskset_file, capsys):
        assert main(["analyze", taskset_file, "--test", "superpos"]) == 2
        assert main(["analyze", taskset_file, "--test", "superpos", "--level", "2"]) == 0

    def test_infeasible_exit_code_and_witness(self, infeasible_file, capsys):
        assert main(["analyze", infeasible_file, "--test", "processor-demand"]) == 1
        assert "witness" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "gen.json"
        code = main(
            ["generate", "--tasks", "5", "--utilization", "0.8",
             "--seed", "3", "-o", str(out_file)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len(data["tasks"]) == 5

    def test_prints_json_without_output(self, capsys):
        assert main(["generate", "--tasks", "3", "--utilization", "0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["tasks"]) == 3


class TestSimulate:
    def test_feasible(self, taskset_file, capsys):
        assert main(["simulate", taskset_file]) == 0

    def test_infeasible(self, infeasible_file):
        assert main(["simulate", infeasible_file]) == 1


class TestBounds:
    def test_lists_all_bounds(self, taskset_file, capsys):
        assert main(["bounds", taskset_file]) == 0
        out = capsys.readouterr().out
        for name in ("baruah", "george", "superposition", "busy_period"):
            assert name in out


class TestExample:
    def test_lists_examples(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "burns" in out and "gresser2" in out

    def test_prints_taskset_example(self, capsys):
        assert main(["example", "gap"]) == 0
        assert "weapon-release" in capsys.readouterr().out

    def test_prints_event_stream_example(self, capsys):
        assert main(["example", "gresser1"]) == 0
        assert "demand components" in capsys.readouterr().out

    def test_exports_taskset(self, tmp_path):
        out_file = tmp_path / "burns.json"
        assert main(["example", "burns", "-o", str(out_file)]) == 0
        assert out_file.exists()

    def test_event_stream_export_rejected(self, tmp_path, capsys):
        code = main(["example", "gresser1", "-o", str(tmp_path / "x.json")])
        assert code == 2

    def test_unknown_example(self, capsys):
        assert main(["example", "nope"]) == 2


class TestPartition:
    @pytest.fixture
    def heavy_file(self, tmp_path):
        """A two-core workload: ma_shin doubled (U ~ 1.83)."""
        from repro.generation import ma_shin_taskset
        from repro.model import SporadicTask, TaskSet

        base = ma_shin_taskset()
        doubled = TaskSet(
            list(base)
            + [
                SporadicTask(
                    wcet=t.wcet, deadline=t.deadline, period=t.period,
                    name=f"{t.name}-b",
                )
                for t in base
            ],
            name="ma_shin-x2",
        )
        path = tmp_path / "heavy.json"
        dump_taskset(doubled, path)
        return str(path)

    def test_pack_verify_and_export(self, heavy_file, tmp_path, capsys):
        out_file = tmp_path / "packed.json"
        code = main(
            ["partition", heavy_file, "--cores", "4", "--heuristic", "ffd",
             "--admission", "approx-dbf", "-o", str(out_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cores" in out
        assert "exact=feasible" in out
        assert "schedulable" in out
        # The export is a valid system-v1 document with the assignment.
        from repro.model import load_system

        system = load_system(out_file)
        assert system.cores == 4
        assert system.is_complete

    def test_deterministic_assignment(self, heavy_file, tmp_path):
        """Acceptance criterion: the documented invocation reproduces."""
        from repro.model import load_system
        from repro.partition import verify_partition

        paths = [str(tmp_path / f"run{i}.json") for i in (1, 2)]
        for path in paths:
            assert main(
                ["partition", heavy_file, "--cores", "4",
                 "--heuristic", "ffd", "--admission", "approx-dbf",
                 "-o", path]
            ) == 0
        first, second = map(load_system, paths)
        assert first == second
        # Every core passes the exact processor-demand criterion.
        verification = verify_partition(first, method="exact")
        assert verification.ok

    def test_min_cores_search(self, heavy_file, capsys):
        assert main(["partition", heavy_file, "--min-cores"]) == 0
        out = capsys.readouterr().out
        assert "minimum cores        : 2" in out
        assert "lower bound (ceil U) : 2" in out

    def test_min_cores_ignores_a_stored_platform_as_ceiling(
        self, heavy_file, tmp_path, capsys
    ):
        # A failed 1-core export must not cap the subsequent search.
        failed = tmp_path / "failed.json"
        assert main(
            ["partition", heavy_file, "--cores", "1", "-o", str(failed)]
        ) == 1
        capsys.readouterr()
        assert main(["partition", str(failed), "--min-cores"]) == 0
        assert "minimum cores        : 2" in capsys.readouterr().out

    def test_system_file_verifies_stored_assignment(
        self, heavy_file, tmp_path, capsys
    ):
        # An exported system re-verifies as stored — even when the
        # current flags would pack differently — unless --repack asks.
        packed = tmp_path / "packed.json"
        main(["partition", heavy_file, "--cores", "3", "--heuristic", "bfd",
              "-o", str(packed)])
        capsys.readouterr()
        assert main(
            ["partition", str(packed), "--heuristic", "wf",
             "--admission", "utilization"]
        ) == 0
        out = capsys.readouterr().out
        assert "using the stored assignment" in out
        assert "3 cores" in out
        assert "packing" not in out  # nothing was re-packed

    def test_repack_overrides_stored_assignment(
        self, heavy_file, tmp_path, capsys
    ):
        packed = tmp_path / "packed.json"
        main(["partition", heavy_file, "--cores", "3", "-o", str(packed)])
        capsys.readouterr()
        assert main(["partition", str(packed), "--repack"]) == 0
        out = capsys.readouterr().out
        assert "using the stored assignment" not in out
        assert "packing" in out

    def test_cores_mismatch_announces_the_discarded_assignment(
        self, heavy_file, tmp_path, capsys
    ):
        packed = tmp_path / "packed.json"
        main(["partition", heavy_file, "--cores", "3", "-o", str(packed)])
        capsys.readouterr()
        assert main(["partition", str(packed), "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "stored assignment ignored" in out
        assert "4 cores" in out

    def test_cores_required_without_system_platform(self, heavy_file, capsys):
        assert main(["partition", heavy_file]) == 2
        assert "--cores" in capsys.readouterr().err

    def test_packing_failure_exit_code(self, heavy_file, capsys):
        assert main(["partition", heavy_file, "--cores", "1"]) == 1
        assert "did not fit" in capsys.readouterr().out

    def test_unknown_admission_lists_registry_names(self, heavy_file, capsys):
        assert main(
            ["partition", heavy_file, "--cores", "2", "--admission", "nope"]
        ) == 2
        err = capsys.readouterr().err
        assert "approx-dbf" in err and "processor-demand" in err

    def test_epsilon_accepts_fraction_strings(self, heavy_file, capsys):
        assert main(
            ["partition", heavy_file, "--cores", "2", "--epsilon", "1/4"]
        ) == 0
        assert "eps=1/4" in capsys.readouterr().out

    def test_verify_none_skips_verification(self, heavy_file, capsys):
        assert main(
            ["partition", heavy_file, "--cores", "2", "--verify", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "verification skipped" in out
        assert "exact=" not in out


class TestCacheStats:
    def test_analyze_cache_stats(self, taskset_file, capsys):
        assert main(["analyze", taskset_file, "--cache-stats"]) == 0
        assert "context cache:" in capsys.readouterr().out

    def test_partition_cache_stats(self, taskset_file, capsys):
        assert main(
            ["partition", taskset_file, "--cores", "2", "--cache-stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "context cache:" in out and "hits=" in out

    def test_no_stats_without_flag(self, taskset_file, capsys):
        assert main(["analyze", taskset_file]) == 0
        assert "context cache:" not in capsys.readouterr().out

    def test_parallel_fanout_stats_carry_a_worker_note(
        self, taskset_file, capsys
    ):
        assert main(
            ["analyze", taskset_file, "--all", "--jobs", "2", "--cache-stats"]
        ) == 0
        assert "own caches" in capsys.readouterr().out

    def test_sequential_fanout_stats_have_no_note(self, taskset_file, capsys):
        assert main(
            ["analyze", taskset_file, "--all", "--jobs", "1", "--cache-stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "context cache:" in out
        assert "own caches" not in out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Burns" in out and "FAILED" in out

    def test_table1_csv_export(self, tmp_path, capsys):
        csv_file = tmp_path / "t1.csv"
        assert main(["experiment", "table1", "--csv", str(csv_file)]) == 0
        content = csv_file.read_text()
        assert content.startswith("system,devi,dynamic")
        assert "Burns" in content and "FAILED" in content


class TestLoad:
    def test_reports_load_and_scaling(self, taskset_file, capsys):
        assert main(["load", taskset_file]) == 0
        out = capsys.readouterr().out
        assert "system load" in out
        assert "critical scaling" in out
        assert "feasible" in out

    def test_infeasible_exit_code(self, infeasible_file, capsys):
        assert main(["load", infeasible_file]) == 1

    def test_hyperperiod_scale_refusal_is_graceful(self, tmp_path, capsys):
        from repro.model import TaskSet, dump_taskset

        nasty = TaskSet.of(
            (2505, 33808, 37048),
            (775, 26408, 33098),
            (13633, 29935, 30256),
            (2423, 17755, 19289),
            (22027, 72177, 97530),
            (100, 11288, 14434),
        )
        path = tmp_path / "nasty.json"
        dump_taskset(nasty, path)
        assert main(["load", str(path)]) == 2
        assert "exact_decision_limit" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


class TestOnlineCommands:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--scenario",
                    "churn",
                    "--events",
                    "30",
                    "--seed",
                    "11",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        return str(path)

    def test_trace_writes_valid_trace_v1(self, trace_file):
        from repro.model import load_trace

        trace = load_trace(trace_file)
        assert len(trace) == 30

    def test_trace_prints_json_without_output(self, capsys):
        assert main(["trace", "--scenario", "ramp", "--events", "5"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro/trace-v1"
        assert len(document["events"]) == 5

    def test_trace_utilization_only_for_churn(self, capsys):
        code = main(
            ["trace", "--scenario", "ramp", "--events", "5", "--utilization", "0.5"]
        )
        assert code == 2
        assert "churn" in capsys.readouterr().err

    def test_replay_summary(self, trace_file, capsys):
        assert main(["replay", trace_file]) == 0
        out = capsys.readouterr().out
        assert "replayed 30 events" in out
        assert "admitted" in out

    def test_replay_with_oracle_and_base(self, trace_file, taskset_file, capsys):
        assert (
            main(
                [
                    "replay",
                    trace_file,
                    "--base",
                    taskset_file,
                    "--oracle",
                    "--per-event",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(oracle: qpa)" in out
        assert "stage exact" in out

    def test_replay_onto_cores(self, trace_file, capsys):
        assert main(["replay", trace_file, "--cores", "2", "--heuristic", "wf"]) == 0
        out = capsys.readouterr().out
        assert "2 cores (wf)" in out
        assert "core 1:" in out

    def test_admit_accepts_and_rejects(self, taskset_file, capsys):
        assert (
            main(["admit", taskset_file, "--task", "1", "20", "25"]) == 0
        )
        assert "admitted" in capsys.readouterr().out
        assert (
            main(["admit", taskset_file, "--task", "500", "20", "25"]) == 1
        )
        assert "REJECTED" in capsys.readouterr().out

    def test_admit_from_file(self, taskset_file, tmp_path, capsys):
        from repro.model import TaskSet, dump_taskset

        candidates = tmp_path / "candidates.json"
        dump_taskset(TaskSet.of((1, 30, 40), (1, 40, 50)), candidates)
        assert main(["admit", taskset_file, "--file", str(candidates)]) == 0
        out = capsys.readouterr().out
        assert out.count("admitted") == 2

    def test_admit_needs_candidates(self, taskset_file, capsys):
        assert main(["admit", taskset_file]) == 2
        assert "--task" in capsys.readouterr().err

    def test_replay_cores_rejects_oracle_and_base(
        self, trace_file, taskset_file, capsys
    ):
        assert main(["replay", trace_file, "--cores", "2", "--oracle"]) == 2
        assert "--oracle" in capsys.readouterr().err
        assert (
            main(["replay", trace_file, "--cores", "2", "--base", taskset_file])
            == 2
        )
        assert "--base" in capsys.readouterr().err
