"""Property tests of ``limit_field`` on random admissible averages.

Hypothesis draws cell averages strictly inside the admissible set with
random higher modes, for degrees 1-3 and both active limiter kinds, and
checks three promises of the limiter: every test node lies in the region
after limiting, the averages keep every bit, and a second pass changes
nothing.  The seeded batteries in ``test_irp_limiter.py`` stay as they are.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from irpdg.dg_space import DGField, basis_values, \
    default_rule  # noqa: E402
from irpdg.euler_core import InvariantRegion, PrimitiveState, \
    to_conserved  # noqa: E402
from irpdg.irp_limiter import LIMITER_IRP, LIMITER_POSITIVITY, Q_SLACK, \
    limit_field  # noqa: E402

GAMMA = 1.4
REGION = InvariantRegion(GAMMA, s0=-1.0)
KINDS = st.sampled_from([LIMITER_POSITIVITY, LIMITER_IRP])


@st.composite
def fields(draw):
    """Averages with rho >= 0.05 and entropy 0.01-3 above the floor, so
    strictly inside the region; higher modes up to 3x each average's size."""
    degree = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))

    def column(lo, hi):
        return draw(arrays(float, n, elements=st.floats(lo, hi)))

    rho, u, ds = column(0.05, 5.0), column(-3.0, 3.0), column(0.01, 3.0)
    w = to_conserved(
        PrimitiveState(rho, u, np.exp(REGION.s0 + ds) * rho**GAMMA), GAMMA)
    coeffs = np.zeros((n, 3, degree + 1))
    coeffs[:, 0, 0], coeffs[:, 1, 0], coeffs[:, 2, 0] = w.rho, w.m, w.E
    modes = draw(arrays(float, (n, 3, degree), elements=st.floats(-3.0, 3.0)))
    coeffs[:, :, 1:] = modes * (np.abs(coeffs[:, :, :1]) + 0.1)
    return DGField(degree, coeffs)


def limit(fld, kind):
    return limit_field(fld, REGION, kind)


@given(fields(), KINDS)
def test_every_test_node_lies_in_the_region(fld, kind):
    out, _ = limit(fld, kind)
    V = basis_values(fld.degree, default_rule(fld.degree).nodes)
    rho, m, E = np.einsum("cvj,nj->vcn", out.coeffs, V)
    assert rho.min() >= REGION.eps
    p = (GAMMA - 1.0) * (E - 0.5 * m * m / rho)
    assert p.min() >= REGION.eps
    if kind == LIMITER_IRP:
        q = (REGION.s0 - (np.log(p) - GAMMA * np.log(rho))) * rho
        assert q.max() <= Q_SLACK


@given(fields(), KINDS)
def test_averages_keep_every_bit(fld, kind):
    out, _ = limit(fld, kind)
    assert np.array_equal(out.coeffs[:, :, 0], fld.coeffs[:, :, 0])


@given(fields(), KINDS)
def test_a_second_pass_changes_nothing(fld, kind):
    once, _ = limit(fld, kind)
    twice, rep = limit(once, kind)
    assert np.array_equal(twice.coeffs, once.coeffs)
    assert rep.n_activated == 0 and rep.fallback_count == 0
