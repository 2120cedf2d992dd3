"""1D DG solver for compressible Euler with an invariant-region-preserving limiter."""

from .harness import RunConfig, error_norms, run

__version__ = "0.1.0"
