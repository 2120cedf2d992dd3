"""Structure the package keeps: one ideal-gas closure, one node kernel, one
wave-speed formula, bounded caches and a public namespace of what the README
imports."""

import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import irpdg

# ``euler_core`` holds the closure; ``riemann_exact``'s wave curves are
# formulas of their own.
CLOSURE_FREE = ("dg_space", "irp_limiter", "time_integration", "harness",
                "cli")


@pytest.mark.parametrize("module", CLOSURE_FREE)
def test_the_closure_is_written_only_in_euler_core(module):
    source = inspect.getsource(importlib.import_module(f"irpdg.{module}"))
    for formula in ("gamma - 1.0", "np.log("):
        assert formula not in source, f"{formula!r} in irpdg.{module}"


def test_every_lru_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(irpdg.__path__):
        module = importlib.import_module(f"irpdg.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters"):
                caches[f"{obj.__module__}.{name}"] = \
                    obj.cache_parameters()["maxsize"]
    assert "irpdg.dg_space._operator_tables" in caches
    assert [name for name, size in caches.items() if size is None] == []


def test_the_limiter_takes_node_values_from_the_wave_speeds_kernel():
    source = inspect.getsource(importlib.import_module("irpdg.irp_limiter"))
    assert "einsum" not in source and "_values_at" in source


def test_the_sound_speed_is_written_once():
    # the limiter's max_speed and global_max_signal_speed share one helper,
    # so the two agree bit for bit
    sources = {info.name: inspect.getsource(
        importlib.import_module(f"irpdg.{info.name}"))
        for info in pkgutil.iter_modules(irpdg.__path__)}
    counts = {name: source.count("np.sqrt(gamma * p / rho)")
              for name, source in sources.items()}
    assert {name: n for name, n in counts.items() if n} == {"dg_space": 1}


def test_the_public_namespace_is_what_the_readme_imports():
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text("utf-8")
    names = re.search(r"^from irpdg import (.+)$", readme, re.M).group(1)
    public = {name for name, obj in vars(irpdg).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert public == {n.strip() for n in names.split(",")}
    pyproject = (root / "pyproject.toml").read_text("utf-8")
    assert f'version = "{irpdg.__version__}"' in pyproject
