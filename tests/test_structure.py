"""Structure the package keeps: one ideal-gas closure, one test set, one node
kernel, one wave-speed formula, one step-record site, bounded caches and
buffers, a public namespace of what the README imports, layer functions
looked up through module globals, and mode-major coefficients along the
step path, where no field is written in place nor any array a step does
not own."""

import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import irpdg
import irpdg.dg_space
import irpdg.harness
import irpdg.irp_limiter
import irpdg.time_integration
from irpdg.euler_core import InvariantRegion
from irpdg.harness import RunConfig
from irpdg.time_integration import _record_block_rows

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


def test_importing_the_harness_fills_no_cache():
    # perfbench's setup_s times a fresh interpreter's import of the package:
    # a table or a solver call made at import time would fill its cache
    code = ("import json, sys, irpdg.harness\n"
            "print(json.dumps({f'{m}.{n}': f.cache_info().currsize\n"
            "    for m, module in list(sys.modules.items())\n"
            "    if m.startswith('irpdg')\n"
            "    for n, f in vars(module).items()\n"
            "    if hasattr(f, 'cache_info')}))")
    src = str(Path(irpdg.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {"irpdg.dg_space._operator_tables", "irpdg.dg_space._test_table",
            "irpdg.riemann_exact.star_of"} <= set(sizes), sizes
    assert {name: n for name, n in sizes.items() if n} == {}


def test_the_limiter_takes_node_values_from_the_wave_speeds_kernel():
    source = inspect.getsource(importlib.import_module("irpdg.irp_limiter"))
    assert "einsum" not in source and "_values_at" in source


def test_only_dg_space_builds_the_test_set():
    # the limiter's nodes and the CFL bound's are one set, by construction
    for info in pkgutil.iter_modules(irpdg.__path__):
        if info.name != "dg_space":
            source = inspect.getsource(
                importlib.import_module(f"irpdg.{info.name}"))
            for name in ("gauss_lobatto_rule", "test_set_size", "basis_table"):
                assert name not in source, f"{name} in irpdg.{info.name}"
    # evaluate_at_nodes takes the node kernel, which needs no table cache
    assert not hasattr(irpdg.dg_space, "basis_table")


@pytest.mark.parametrize("degree", range(7))
def test_the_test_table_is_c_order(degree):
    # _values_at reads the table's mode axis contiguous: the layout does not
    # change its bits, but over basis_values' own layout the P2 wave speed
    # took 1.5x as long at 2560 cells and limit_field 1.26x
    V = irpdg.dg_space._test_table(degree)
    assert V.flags.c_contiguous and not V.flags.writeable


@pytest.mark.parametrize("degree", range(7))
def test_the_operator_tables_are_c_order(degree):
    # the operator's einsums read each table's mode axis contiguous: a
    # transposed table keeps every bit, but its P2 node pass took 1.5x as
    # long at 2560 cells
    _, even, odd, Dq, _, _ = irpdg.dg_space._operator_tables(degree)
    assert even.shape[1] + odd.shape[1] == Dq.shape[1] == degree + 1
    for table in (even, odd, Dq):
        assert table.flags.c_contiguous and not table.flags.writeable


def test_the_sound_speed_is_written_once(monkeypatch):
    # the limiter's max_speed and global_max_signal_speed share one helper,
    # so the two agree bit for bit
    dg_space = irpdg.dg_space
    assert irpdg.irp_limiter._max_speed is dg_space._max_speed
    calls = []

    def counted(*args):
        calls.append(args)
        return max_speed(*args)

    max_speed = dg_space._max_speed
    monkeypatch.setattr(dg_space, "_max_speed", counted)
    coeffs = np.zeros((4, 3, 3))
    coeffs[:, 0, 0], coeffs[:, 2, 0] = 1.0, 2.5
    speed = dg_space.global_max_signal_speed(dg_space.DGField(2, coeffs), 1.4)
    assert len(calls) == 1 and speed == max_speed(*calls[0])


@pytest.mark.parametrize("n_cells", (1, 128, 2560, 10**5))
def test_the_record_block_holds_at_most_64_kib(n_cells):
    # the block's averages add to the solve's peak memory
    assert _record_block_rows(n_cells) == max(1, 65536 // (24 * n_cells))


@pytest.mark.parametrize("kind", irpdg.irp_limiter.LIMITER_KINDS)
@pytest.mark.parametrize("dip", (False, True), ids=("quiet", "limited"))
def test_the_limiter_report_holds_no_per_cell_array_but_theta(kind, dip):
    # the step reads theta, three counts, the fallback count and the speed;
    # a positivity or irp report keeps its node values, in a tuple, only
    # until its speed is read
    coeffs = np.zeros((8, 3, 3))
    coeffs[:, 0, 0], coeffs[:, 2, 0] = 1.0, 2.5
    if dip:
        coeffs[5, 0, 1] = 2.0  # a density node below 0
    fld = irpdg.dg_space.DGField(2, coeffs)
    _, rep = irpdg.irp_limiter.limit_field(
        fld, InvariantRegion(1.4, s0=-1.0), kind)
    assert rep.n_activated == (dip and kind != "none")
    arrays = {name for name, value in vars(rep).items()
              if isinstance(value, np.ndarray)}
    assert arrays == {"theta"} and rep.theta.shape == (8,)


def test_step_records_are_built_at_one_site():
    sources = [inspect.getsource(importlib.import_module(f"irpdg.{info.name}"))
               for info in pkgutil.iter_modules(irpdg.__path__)]
    assert sum(source.count("StepDiagnostics(") for source in sources) == 1


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


# Where each layer function is looked up: the benchmark's set-up probe stops
# ``run`` at ``harness.evolve``, and its per-layer spans wrap every name
# here in the module given, so the calls must go through these globals.
# A positivity or irp limit reports its field's wave speed, so only a
# none-kind run evaluates ``global_max_signal_speed``.
PATCH_POINTS = {
    irpdg.harness: ("build_region", "l2_project", "evolve"),
    irpdg.time_integration: ("spatial_operator", "global_max_signal_speed",
                             "limit_field", "_diagnostics"),
}


@pytest.mark.parametrize("config", [
    RunConfig(problem="lax", n_cells=20, t_final=0.02),
    RunConfig(problem="shu_osher", n_cells=32, t_final=0.02),
    RunConfig(problem="lax", n_cells=20, t_final=0.02, limiter="none")],
    ids=("lax", "shu_osher", "lax_none"))
def test_run_reaches_every_layer_through_its_module_global(monkeypatch,
                                                           config):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, names in PATCH_POINTS.items():
        for name in names:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    irpdg.harness.run(config)
    expected = {name for names in PATCH_POINTS.values() for name in names}
    if config.limiter != "none":
        expected.remove("global_max_signal_speed")
    assert set(calls) == expected, calls


STEP_PATH_CONFIGS = pytest.mark.parametrize("config", [
    RunConfig(problem="lax", n_cells=20, t_final=0.02),
    RunConfig(problem="shu_osher", n_cells=32, t_final=0.02),
    RunConfig(problem="smooth_advection", degree=3, n_cells=16,
              integrator="ms3", limiter_placement="per_step", t_final=0.02)],
    ids=("lax", "shu_osher", "advection_ms3"))


@STEP_PATH_CONFIGS
def test_the_step_path_keeps_coefficients_mode_major(monkeypatch, config):
    # a stray C-order copy keeps every bit and costs the layout's speed, so
    # no other test would fail for it
    seen = {}  # per function: (input mode-major, output mode-major) per call

    def checked(name, fn):
        def wrapped(fld, *args):
            result = fn(fld, *args)
            out = result[0].coeffs if name == "limit_field" else result
            seen.setdefault(name, []).append(
                (fld.coeffs.T.flags.c_contiguous, out.T.flags.c_contiguous))
            return result
        return wrapped

    ti = irpdg.time_integration
    for name in ("spatial_operator", "limit_field"):
        monkeypatch.setattr(ti, name, checked(name, getattr(ti, name)))
    final = irpdg.harness.run(config).result.final
    assert set(seen) == {"spatial_operator", "limit_field"}
    assert all(all(call) for calls in seen.values() for call in calls), seen
    assert final.coeffs.T.flags.c_contiguous
    assert final.averages().flags.c_contiguous


@STEP_PATH_CONFIGS
def test_the_step_path_writes_no_field_in_place(monkeypatch, config):
    # a quiet limit returns its input field itself, so a write into one
    # field's coefficients could change a field still in use; with every
    # field read-only, a run must give the same bits
    expected = irpdg.harness.run(config).result.final.coeffs.tobytes()
    post_init = irpdg.dg_space.DGField.__post_init__

    def read_only(fld):
        post_init(fld)
        fld.coeffs.flags.writeable = False

    monkeypatch.setattr(irpdg.dg_space.DGField, "__post_init__", read_only)
    final = irpdg.harness.run(config).result.final
    assert not final.coeffs.flags.writeable
    assert final.coeffs.tobytes() == expected


@STEP_PATH_CONFIGS
def test_the_node_kernel_receives_c_contiguous_mode_major_blocks(
        monkeypatch, config):
    # the kernel copies nothing, so a caller that handed it a strided view
    # or a cell-major gather would keep every bit and go unnoticed
    original = irpdg.dg_space._values_at
    seen = []

    def checked(modes, V):
        seen.append((modes.shape[:2], modes.flags.c_contiguous))
        return original(modes, V)

    for module in (irpdg.dg_space, irpdg.irp_limiter):
        monkeypatch.setattr(module, "_values_at", checked)
    irpdg.harness.run(config)
    assert seen and set(seen) == {((config.degree + 1, 3), True)}, set(seen)


@pytest.mark.parametrize("config", [
    RunConfig(problem="lax", n_cells=20, t_final=0.02),
    RunConfig(problem="shu_osher", n_cells=64, t_final=0.02),
    RunConfig(problem="smooth_advection", degree=3, n_cells=16,
              integrator="ms3", limiter_placement="per_step", t_final=0.02)],
    ids=("lax", "shu_osher", "advection_ms3"))
def test_a_step_writes_into_no_array_it_does_not_own(monkeypatch, config):
    # a step computes its stages in place in the residuals its operator
    # calls return; its input coefficients, every MS3 history entry and the
    # node values a report holds for its speed, quiet or not, must keep
    # every byte, then and for the rest of the run
    ti = irpdg.time_integration
    held = []  # (array, digest of its bytes when first seen)

    def hold(*arrays):
        held.extend((a, hashlib.sha256(a.tobytes()).digest()) for a in arrays)

    def changed():
        return [i for i, (a, digest) in enumerate(held)
                if hashlib.sha256(a.tobytes()).digest() != digest]

    def rk3(fld, dt, rhs, limit, per_stage=True):
        hold(fld.coeffs)
        out = rk3_step(fld, dt, rhs, limit, per_stage)
        assert not changed()
        return out

    def ms3(*args):
        hold(*args[:4])
        out = ms3_step(*args)
        assert not changed()
        return out

    def limit(fld, region, kind):
        out, rep = limit_field(fld, region, kind)
        if rep._nodes is not None:  # (rho, m, p, gamma) for its speed
            hold(*rep._nodes[:3])
        return out, rep

    rk3_step, ms3_step, limit_field = \
        ti.ssp_rk3_step, ti.ssp_ms3_step, ti.limit_field
    monkeypatch.setattr(ti, "ssp_rk3_step", rk3)
    monkeypatch.setattr(ti, "ssp_ms3_step", ms3)
    monkeypatch.setattr(ti, "limit_field", limit)
    irpdg.harness.run(config)
    assert held and not changed()
