"""What a CLI process loads, and when numpy loads.

``repro.cli`` imports a subcommand's layers (the HTTP service, the
experiments, partitioning, online admission, generation, the simulator,
real-time calculus) only when that subcommand runs, the engine registry
imports the runners of the multiprocessor and ``rtc`` tests only when
they run, and numpy loads only when a kernel walk long enough for
numpy's loops builds its int64 arrays.  The paper's own tests never run such a
walk, and a short ``qpa`` walk stays on the python loop, so ``analyze
--test dynamic`` or ``--test qpa`` on a small set runs without numpy or
the service stack in the process.  Import state is per process, so
those checks run in fresh subprocesses.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine import analyze
from repro.engine.context import clear_context_cache
from repro.generation import example_systems, generate_taskset
from repro.kernel import backend_info, reset_walk_counters
from repro.kernel import kernel as kernel_module
from repro.model import dump_taskset

needs_numpy = pytest.mark.skipif(
    not backend_info()["numpy"], reason="numpy not installed"
)

#: Modules no ``analyze`` process needs.
SUBCOMMAND_LAYERS = (
    "numpy",
    "repro.service",
    "repro.experiments",
    "repro.fleet",
    "http.server",
    "repro.partition",
    "repro.sim",
    "repro.online",
    "repro.generation",
    "repro.rtc",
)

#: ``repro generate --tasks 30 --utilization 0.95 --seed 3``: its
#: processor-demand walk is long enough for numpy's loop to serve.
SEED3 = dict(n=30, utilization=0.95, seed=3)
#: An infeasible set whose processor-demand walk numpy serves too.
INFEASIBLE = dict(n=30, utilization=0.99, seed=1, gap=(0.3, 0.8))


def _taskset_file(tmp_path, **config):
    path = tmp_path / "tasks.json"
    dump_taskset(generate_taskset(**config), path)
    return str(path)


def _run(args, script=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = ["-c", script] if script is not None else ["-m", "repro"]
    return subprocess.run(
        [sys.executable, *command, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


_MAIN_THEN_LIST_MODULES = textwrap.dedent(
    """
    import sys

    from repro.cli import main

    code = main(sys.argv[1:])
    print("loaded:", *sorted(
        name for name in {names!r} if name in sys.modules
    ))
    sys.exit(code)
    """
)


def _main_in_fresh_process(args, watch=SUBCOMMAND_LAYERS):
    """Run ``repro.cli.main(args)`` in a new interpreter; return the
    completed process and which of *watch* it had imported."""
    completed = _run(args, _MAIN_THEN_LIST_MODULES.format(names=watch))
    lines = completed.stdout.strip().splitlines()
    assert lines and lines[-1].startswith("loaded:"), completed.stderr
    return completed, set(lines[-1].split()[1:])


@pytest.fixture
def reset_stats():
    yield
    reset_walk_counters()
    clear_context_cache()


def test_analyze_dynamic_loads_no_other_subcommand_layer(tmp_path):
    path = _taskset_file(tmp_path, **SEED3)
    completed, loaded = _main_in_fresh_process(
        ["analyze", path, "--test", "dynamic", "--cache-stats"]
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("dynamic: feasible")
    # Whether numpy is installed is reported without loading it.
    numpy = "installed" if backend_info()["numpy"] else "not installed"
    assert f"calls=0 fallbacks=0 (numpy {numpy})" in completed.stdout
    assert loaded == set()


def test_analyze_devi_compiles_a_kernel_without_numpy(tmp_path):
    path = _taskset_file(tmp_path, **SEED3)
    completed, loaded = _main_in_fresh_process(
        ["analyze", path, "--test", "devi", "--cache-stats"]
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("devi: unknown iterations=25")
    assert "calls=0 fallbacks=0" in completed.stdout
    assert loaded == set()


def test_default_registry_loads_no_multiprocessor_or_rtc_layer():
    completed = _run(
        [],
        textwrap.dedent(
            """
            import sys

            from repro.engine import default_registry

            registry = default_registry()
            assert "partitioned-edf" in registry and "rtc" in registry
            print(*sorted(
                name for name in ("repro.partition", "repro.rtc")
                if name in sys.modules
            ))
            """
        ),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == []


@pytest.mark.parametrize(
    "args, expected, layer",
    [
        (["--test", "rtc"], "rtc(3): feasible iterations=4\n", "repro.rtc"),
        (
            ["--test", "partitioned-edf", "--cores", "2"],
            "partitioned-edf: feasible iterations=14\n",
            "repro.partition",
        ),
    ],
    ids=["rtc", "partitioned-edf"],
)
def test_a_deferred_runner_loads_its_layer_when_it_runs(
    tmp_path, args, expected, layer
):
    path = tmp_path / "burns.json"
    dump_taskset(example_systems()["burns"], path)
    completed, loaded = _main_in_fresh_process(["analyze", str(path), *args])
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.replace(f"loaded: {layer}\n", "") == expected
    assert loaded == {layer}


def test_service_error_maps_to_exit_2_without_a_traceback():
    completed = _run(["status", "--url", "http://127.0.0.1:9"])
    assert completed.returncode == 2
    assert completed.stderr.startswith("error: ")
    assert "Traceback" not in completed.stderr


def test_analyze_qpa_on_a_small_set_stays_off_numpy(tmp_path):
    """The Burns example's 2-iteration QPA walk is below the size rule:
    the python loop runs it, no numpy array is built, and it is not a
    fallback."""
    path = tmp_path / "burns.json"
    dump_taskset(example_systems()["burns"], path)
    completed, loaded = _main_in_fresh_process(
        ["analyze", str(path), "--test", "qpa", "--cache-stats"],
        watch=("numpy",),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("qpa: feasible iterations=2")
    assert "calls=1 fallbacks=0" in completed.stdout
    assert loaded == set()


@needs_numpy
def test_numpy_loads_when_a_call_runs_numpy_code(tmp_path):
    path = _taskset_file(tmp_path, **SEED3)
    completed, loaded = _main_in_fresh_process(
        ["analyze", path, "--test", "processor-demand", "--cache-stats"],
        watch=("numpy",),
    )
    assert completed.returncode == 0, completed.stderr
    assert "calls=1 fallbacks=0 (numpy installed)" in completed.stdout
    assert loaded == {"numpy"}


@needs_numpy
@pytest.mark.parametrize("config", [SEED3, INFEASIBLE], ids=["seed3", "infeasible"])
def test_failed_numpy_import_falls_back_to_the_python_loop(
    config, monkeypatch, reset_stats
):
    tasks = generate_taskset(**config)
    clear_context_cache()
    with monkeypatch.context() as patch:  # pin the walk to the python loop
        patch.setattr(kernel_module, "_MIN_VECTOR_JOBS", float("inf"))
        expected = analyze(tasks, "processor-demand")

    clear_context_cache()
    reset_walk_counters()
    # numpy is installed (found before its import is made to fail), and
    # the first array build finds it unimportable.
    assert backend_info()["numpy"]
    monkeypatch.setattr("repro.kernel.vectorized.np", None)
    monkeypatch.setitem(sys.modules, "numpy", None)
    got = analyze(tasks, "processor-demand")

    assert (got.verdict, got.witness, got.iterations) == (
        expected.verdict, expected.witness, expected.iterations
    )
    info = backend_info()
    assert (info["calls"], info["fallbacks"]) == (1, 1)
