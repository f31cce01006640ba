"""What a CLI process loads, and when numpy loads.

``repro.cli`` imports a subcommand's layers (the HTTP service, the
experiments, online admission, the simulator) only when that subcommand
runs, and selecting the numpy kernel backend does not import numpy: the
first array build of a kernel does.  The paper's own tests never
dispatch to the backend, so ``analyze --test dynamic`` runs without
numpy or the service stack in the process.  Import state is per process,
so those checks run in fresh subprocesses.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import cli
from repro.engine import analyze
from repro.engine.context import clear_context_cache
from repro.generation import generate_taskset
from repro.kernel import (
    available_backends,
    backend_info,
    reset_backend_stats,
    set_backend,
)
from repro.model import dump_taskset

needs_numpy = pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy not installed"
)

#: Modules no ``analyze`` process needs.
SUBCOMMAND_LAYERS = (
    "numpy",
    "repro.service",
    "repro.experiments",
    "repro.fleet",
    "http.server",
)

#: ``repro generate --tasks 30 --utilization 0.95 --seed 3``: its
#: processor-demand walk is long enough for the numpy backend to serve.
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
def restore_backend():
    yield
    set_backend("auto")
    reset_backend_stats()
    clear_context_cache()


def test_analyze_dynamic_loads_no_other_subcommand_layer(tmp_path):
    path = _taskset_file(tmp_path, **SEED3)
    completed, loaded = _main_in_fresh_process(
        ["analyze", path, "--test", "dynamic", "--cache-stats"]
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("dynamic: feasible")
    # The backend is selected and reported without loading numpy.
    active = "numpy" if "numpy" in available_backends() else "python"
    assert f"kernel backend: {active} " in completed.stdout
    assert "calls=0 fallbacks=0" in completed.stdout
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


def test_service_error_maps_to_exit_2_without_a_traceback():
    completed = _run(["status", "--url", "http://127.0.0.1:9"])
    assert completed.returncode == 2
    assert completed.stderr.startswith("error: ")
    assert "Traceback" not in completed.stderr


@needs_numpy
def test_numpy_loads_when_a_call_runs_numpy_code(tmp_path):
    path = _taskset_file(tmp_path, **SEED3)
    completed, loaded = _main_in_fresh_process(
        ["analyze", path, "--test", "processor-demand", "--cache-stats"],
        watch=("numpy",),
    )
    assert completed.returncode == 0, completed.stderr
    assert "kernel backend: numpy " in completed.stdout
    assert "calls=1 fallbacks=0" in completed.stdout
    assert loaded == {"numpy"}


def test_unavailable_numpy_is_refused_by_name(tmp_path, monkeypatch, capsys,
                                              restore_backend):
    monkeypatch.setattr(
        "repro.kernel.vectorized.find_spec", lambda name: None
    )
    assert available_backends() == ("python",)
    path = _taskset_file(tmp_path, **SEED3)
    code = cli.main(
        ["analyze", path, "--test", "dynamic", "--kernel-backend", "numpy"]
    )
    assert code == 2
    assert "'fast' extra" in capsys.readouterr().err


@needs_numpy
@pytest.mark.parametrize("config", [SEED3, INFEASIBLE], ids=["seed3", "infeasible"])
def test_failed_numpy_import_falls_back_to_the_python_loop(
    config, monkeypatch, restore_backend
):
    tasks = generate_taskset(**config)
    set_backend("python")
    clear_context_cache()
    expected = analyze(tasks, "processor-demand")

    set_backend("numpy")
    clear_context_cache()
    reset_backend_stats()
    # The first array build finds numpy unimportable.
    monkeypatch.setattr("repro.kernel.vectorized.np", None)
    monkeypatch.setitem(sys.modules, "numpy", None)
    got = analyze(tasks, "processor-demand")

    assert (got.verdict, got.witness, got.iterations) == (
        expected.verdict, expected.witness, expected.iterations
    )
    info = backend_info()
    assert info["active"] == "numpy"
    assert (info["calls"], info["fallbacks"]) == (1, 1)


def test_python_backend_is_reported_when_pinned(tmp_path, capsys,
                                                 restore_backend):
    path = _taskset_file(tmp_path, **SEED3)
    assert cli.main([
        "analyze", path, "--test", "processor-demand",
        "--kernel-backend", "python", "--cache-stats",
    ]) == 0
    assert "kernel backend: python (" in capsys.readouterr().out
