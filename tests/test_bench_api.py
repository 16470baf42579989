"""The benchmark under ``bench/`` calls textreuse by name; every name it
relies on must exist.

``bench/traced.py`` wraps functions listed in ``RUN_TARGETS`` and
``SERIAL_TARGETS`` and fails at run time on a missing one; ``workloads.py``
and ``align_run.py`` import from textreuse at load time.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def traced_targets():
    traced = load_bench_module("traced")
    for targets in (traced.RUN_TARGETS, traced.SERIAL_TARGETS):
        for module_name, names in targets.items():
            for name in names:
                yield module_name, name


@pytest.mark.parametrize("module_name, name", list(traced_targets()))
def test_traced_target_is_a_callable_of_its_module(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


@pytest.mark.parametrize("name", ["workloads", "align_run"])
def test_bench_module_imports(name):
    load_bench_module(name)
