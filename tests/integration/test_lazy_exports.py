"""Packages that export their names lazily (PEP 562).

``repro``, ``repro.partition``, ``repro.generation``, ``repro.online``
and ``repro.sim`` map each exported name to its defining submodule and
import that submodule on the name's first access.  Import state is per
process, so every check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.partition",
    "repro.generation",
    "repro.online",
    "repro.sim",
)


def _run(script):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_import_loads_no_exporting_submodule(package):
    out = _run(
        f"""
        import sys

        before = set(sys.modules)
        import {package}
        print(*sorted(
            name for name in set(sys.modules) - before
            if name.startswith("{package}.")
        ))
        """
    )
    assert out.split() in ([], ["repro._lazy"])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_defining_modules_object(package):
    _run(
        f"""
        import sys
        from importlib import import_module
        from types import FunctionType

        import {package} as package

        assert set(package.__all__) <= set(dir(package))  # before any access
        for name in package.__all__:
            value = getattr(package, name)
            if name in package._EXPORTS:
                submodule = package._EXPORTS[name]
                module = import_module(package.__name__ + "." + submodule)
                assert value is getattr(module, name), name
            if isinstance(value, (type, FunctionType)):
                assert getattr(sys.modules[value.__module__], name) is value, name
        """
    )


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_name(package):
    _run(
        f"""
        import {package} as package

        namespace = {{}}
        exec("from {package} import *", namespace)
        missing = set(package.__all__) - set(namespace)
        assert not missing, missing
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name
        """
    )


def test_top_level_names_outside_the_table():
    _run(
        """
        import repro

        assert repro.__version__ == "1.2.0"
        assert callable(repro.analyze)
        assert "TESTS" not in vars(repro)  # built on first access
        from repro.analysis import (
            devi_test, liu_layland_test, processor_demand_test, qpa_test,
        )
        from repro.core import all_approx_test, dynamic_test

        assert repro.TESTS == {
            "all-approx": all_approx_test,
            "dynamic": dynamic_test,
            "processor-demand": processor_demand_test,
            "qpa": qpa_test,
            "devi": devi_test,
            "liu-layland": liu_layland_test,
        }
        assert repro.TESTS is repro.TESTS
        burns = repro.TaskSet.of((2, 6, 10), (3, 11, 16), (5, 25, 25))
        assert repro.analyze(burns, "dynamic") == repro.TESTS["dynamic"](burns)
        """
    )


def test_a_submodule_resolves_as_an_attribute():
    """The packages once imported their submodules eagerly, so code may
    reach one through its package without importing it."""
    _run(
        """
        import repro

        burns = repro.TaskSet.of((2, 6, 10), (3, 11, 16), (5, 25, 25))
        assert repro.engine.analyze(burns, "dynamic") == repro.analyze(burns, "dynamic")
        assert repro.partition.packing.HEURISTICS == repro.partition.HEURISTICS
        assert repro.partition.pack is repro.partition.packing.pack
        assert repro.generation.traces.TRACE_SCENARIOS
        assert repro.result.Verdict is repro.Verdict
        """
    )


def test_unknown_name_is_an_attribute_error():
    _run(
        """
        import repro.partition

        for module in ("repro", "repro.partition"):
            try:
                __import__(module).no_such_name
            except AttributeError as err:
                assert "no_such_name" in str(err)
            else:
                raise AssertionError(module)
        try:
            from repro.sim import no_such_name  # noqa: F401
        except ImportError:
            pass
        else:
            raise AssertionError("repro.sim")
        """
    )


@pytest.mark.parametrize("first", ["submodule", "name"])
def test_a_name_shadowing_its_submodule_stays_the_function(first):
    """``uunifast``, ``replay`` and ``dbf`` are each defined in a
    submodule of the same name; importing that submodule, before or
    after the name is read, leaves the package's name the function."""
    imports = textwrap.dedent(
        """
        import repro.analysis.dbf
        import repro.generation.uunifast
        import repro.online.replay
        """
    )
    reads = textwrap.dedent(
        """
        from repro.analysis import dbf
        from repro.generation import uunifast
        from repro.online import replay
        """
    )
    _run(
        (imports + reads if first == "submodule" else reads + imports)
        + textwrap.dedent(
            """
            import sys
            from types import FunctionType

            import repro

            for package, name in [
                (repro.analysis, "dbf"),
                (repro.generation, "uunifast"),
                (repro.online, "replay"),
            ]:
                value = getattr(package, name)
                assert isinstance(value, FunctionType), (package, value)
                module = sys.modules[package.__name__ + "." + name]
                assert value is getattr(module, name)
            assert uunifast is repro.generation.uunifast
            assert replay is repro.online.replay
            assert dbf is repro.analysis.dbf
            assert len(repro.generation.uunifast(3, 0.5)) == 3
            """
        )
    )
