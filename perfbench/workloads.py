"""The benchmark's workloads: solver configurations, seed shifts and answer checks.

Each workload is one ``RunConfig`` solved through ``irpdg.harness.run``.
The seed moves the domain by a sub-cell fraction of the cell width ``h``, so
shocks and extrema sit elsewhere relative to the cell edges; seed 0 keeps
the paper's set-up unshifted.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import replace

import numpy as np

import irpdg.harness
from irpdg.dg_space import evaluate_at_nodes, gauss_legendre_rule
from irpdg.euler_core import ConservedState, in_region
from irpdg.harness import RunConfig, RunOutput, density_reference, \
    error_norms

# RunConfig arguments of each workload; the rest keep their defaults.
CONFIGS = {
    # Limiter-heavy: P2, N=100, RK3 with the limiter after every stage.
    "lax_shock": dict(problem="lax", degree=2, n_cells=100, t_final=0.5),
    # Operator-heavy: the criterion-7 reference resolution, short horizon.
    "shu_osher_fine": dict(problem="shu_osher", degree=2, n_cells=2560,
                           t_final=0.01),
    # Per-call overhead: P3 multistep, one operator call per step.
    "advection_ms3": dict(problem="smooth_advection", degree=3, n_cells=128,
                          integrator="ms3", limiter_placement="per_step",
                          t_final=0.25),
}

# Density L1 gates.  lax_shock uses the FROZEN acceptance bound.  The
# advection bound is about 3x the worst shifted seed seen (3.4e-9); seed 0
# gives 1.5e-10 because its entropy-floor samples hit the density maximum.
L1_BOUNDS = {"lax_shock": 0.04, "advection_ms3": 1e-8}

ENTROPY_TOL = 1e-10
GOLDEN_RTOL = 1e-12
GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_shu_osher_fine_seed0.json")


def shift_fraction(seed: int) -> float:
    """Domain shift as a fraction of h in [-0.5, 0.5); exactly 0 for seed 0."""
    return 0.0 if seed == 0 else random.Random(seed).uniform(-0.5, 0.5)


def config_for(name: str, seed: int, harness=irpdg.harness) -> RunConfig:
    """The workload's RunConfig, built by ``harness`` (the library's by default).

    The reference solver passes its own harness module, so that both solve
    the same problem on the same shifted domain.
    """
    base = harness.RunConfig(**CONFIGS[name])
    a, b = harness.preset(base.problem, base.gamma).domain
    shift = shift_fraction(seed) * (b - a) / base.n_cells
    return replace(base, domain=(a + shift, b + shift))


def field_bytes(config: RunConfig) -> int:
    """Bytes of one modal field: n_cells x 3 variables x (degree+1) float64."""
    return config.n_cells * 3 * (config.degree + 1) * 8


def coeffs_sha256(out: RunOutput) -> str:
    return hashlib.sha256(out.result.final.coeffs.tobytes()).hexdigest()


def summary(out: RunOutput) -> dict:
    """Scalars that pin down a final field; compared to the committed golden."""
    fld = out.result.final
    avg = fld.averages()
    totals = out.mesh.h * avg.sum(axis=0)
    return {
        "steps": len(out.result.diagnostics) - 1,
        "total_rho": float(totals[0]),
        "total_m": float(totals[1]),
        "total_E": float(totals[2]),
        "rho_avg_min": float(avg[:, 0].min()),
        "rho_avg_max": float(avg[:, 0].max()),
        "abs_coeff_sum": [float(v) for v in np.abs(fld.coeffs).sum(axis=(0, 2))],
        "min_avg_entropy": out.result.min_avg_entropy,
    }


def _golden_mismatches(got: dict, want: dict) -> list[str]:
    bad = []
    for key, ref in want.items():
        for g, r in zip(np.atleast_1d(got[key]), np.atleast_1d(ref)):
            if abs(g - r) > GOLDEN_RTOL * abs(r):
                bad.append(f"{key}: {g!r} != golden {r!r}")
    return bad


def _shu_osher_smooth_l1(out: RunOutput, t: float) -> float:
    """Density L1 error outside the band the shock interaction has reached.

    Left of x=-4 the inflow state is uniform and every characteristic moves
    right, so it stays exact; right of the shock the stationary wave
    rho = 1 + 0.2 sin(5x) (u=0, p=1) is exact until the shock arrives.  Both
    are the initial density, so ``preset.rho0`` is the reference there.  No
    signal is faster than 5, and 16 cells of margin cover the smearing.
    """
    mesh = out.mesh
    edges = mesh.edges()
    keep = (edges[1:] < -4.0 - 16 * mesh.h) \
        | (edges[:-1] > -4.0 + 5.0 * t + 16 * mesh.h)
    rule = gauss_legendre_rule(out.result.final.degree + 1)
    xs = mesh.physical_points(rule.nodes)
    num = evaluate_at_nodes(out.result.final, rule.nodes)[:, 0, :]
    diff = np.abs(num - out.preset.rho0(xs))
    return float(mesh.h * (diff[keep] @ rule.weights).sum())


def check(name: str, seed: int, out: RunOutput) -> tuple[list[str], float, float]:
    """Check one solve; returns (failures, density L1, reference time in ms)."""
    failures = []
    t = out.config.t_final
    start = time.perf_counter()
    if name == "shu_osher_fine":
        l1 = _shu_osher_smooth_l1(out, t)
    else:
        l1 = error_norms(out.result.final, out.mesh,
                         density_reference(out, t))[1]
    reference_ms = 1e3 * (time.perf_counter() - start)
    if name in L1_BOUNDS and not l1 <= L1_BOUNDS[name]:
        failures.append(f"density_l1 {l1!r} above {L1_BOUNDS[name]}")

    # The entropy floor gets the same tolerance as min_avg_entropy: a
    # constant state on the floor (the Lax right state) projects to
    # averages with s = s0 - 4e-14 from round-off alone.
    avg = out.result.final.averages()
    admissible = in_region(ConservedState(avg[:, 0], avg[:, 1], avg[:, 2]),
                           replace(out.region, s0=out.region.s0 - ENTROPY_TOL))
    if not admissible.all():
        failures.append(f"{np.count_nonzero(~admissible)} final cell "
                        "averages outside the admissible set")
    if not out.result.min_avg_entropy >= out.region.s0 - ENTROPY_TOL:
        failures.append(f"min_avg_entropy {out.result.min_avg_entropy!r} "
                        f"below s0 - {ENTROPY_TOL} (s0={out.region.s0!r})")
    if name == "shu_osher_fine" and seed == 0:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            failures += _golden_mismatches(summary(out), json.load(fh))
    return failures, l1, reference_ms
