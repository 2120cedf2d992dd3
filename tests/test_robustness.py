"""Near-vacuum and strong-shock Riemann problems from the positivity literature.

Each runs at N=100 with default options and must finish without an abort,
keep the cell averages' entropy above the floor and leave every
Gauss-Lobatto test node of the final field inside the admissible set.
The node states are recomputed here from the plain formulas.
"""

import numpy as np
import pytest

from irpdg.dg_space import default_rule, evaluate_at_nodes
from irpdg.euler_core import PrimitiveState
from irpdg.harness import RunConfig, run
from irpdg.irp_limiter import Q_SLACK

CASES = {
    # Einfeldt, Munz, Roe & Sjoegren (1991): two rarefactions leave a
    # near-vacuum in the middle, with s = s0 almost everywhere
    "einfeldt_123_p1": dict(degree=1, left=(1.0, -2.0, 0.4),
                            right=(1.0, 2.0, 0.4), domain=(-1.0, 1.0),
                            t_final=0.15),
    "einfeldt_123_p2": dict(degree=2, left=(1.0, -2.0, 0.4),
                            right=(1.0, 2.0, 0.4), domain=(-1.0, 1.0),
                            t_final=0.15),
    "einfeldt_123_p3": dict(degree=3, left=(1.0, -2.0, 0.4),
                            right=(1.0, 2.0, 0.4), domain=(-1.0, 1.0),
                            t_final=0.15),
    # Leblanc: a pressure ratio of 1e9 and a density ratio of 1e3
    "leblanc": dict(gamma=5.0 / 3.0, left=(1.0, 0.0, 2.0 / 3.0 * 1e-1),
                    right=(1e-3, 0.0, 2.0 / 3.0 * 1e-10), domain=(0.0, 9.0),
                    x0=3.0, t_final=6.0),
    # left half of the Woodward-Colella blast wave
    "woodward_colella_left": dict(left=(1.0, 0.0, 1000.0),
                                  right=(1.0, 0.0, 0.01), domain=(0.0, 1.0),
                                  x0=0.5, t_final=0.012),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stays_in_the_admissible_set(name):
    case = dict(CASES[name])
    left = PrimitiveState(*case.pop("left"))
    right = PrimitiveState(*case.pop("right"))
    out = run(RunConfig(problem="custom-riemann", n_cells=100, left=left,
                        right=right, **case))
    region = out.region
    assert out.result.diagnostics[-1].t == pytest.approx(case["t_final"])
    assert out.result.min_avg_entropy >= region.s0 - 1e-10

    fld = out.result.final
    vals = evaluate_at_nodes(fld, default_rule(fld.degree).nodes)
    rho, m, E = vals[:, 0], vals[:, 1], vals[:, 2]
    assert np.all(rho >= region.eps)
    p = (region.gamma - 1.0) * (E - 0.5 * m * m / rho)
    assert np.all(p >= region.eps)
    q = (region.s0 - (np.log(p) - region.gamma * np.log(rho))) * rho
    assert np.all(q <= Q_SLACK)
