"""Structure the package keeps: one ideal-gas closure and bounded caches."""

import importlib
import inspect
import pkgutil

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
