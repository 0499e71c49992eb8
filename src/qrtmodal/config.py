"""Numerical tolerance and resource caps.

One tolerance, ``tol``, bounds every matrix-level rule: the Hermiticity
defect, the PSD floor and the trace deviation of a state; the
trace-preservation defect and the Choi PSD floor of a channel; and the
trace-distance radius for matching a matrix to a named state, with two
named states within 2 tol of each other an ambiguity. It defaults to
1e-9: double-precision eigensolves on the matrix sizes this package
allows (dim <= 64) stay several orders of magnitude below that.
"""

from __future__ import annotations

import os

MAX_DIM_DEFAULT = 64
MAX_CHANNELS = 10_000
MAX_ISO_NODES = 10_000_000
OBJECT_CAP = 5
DEFAULT_P_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_TOL = 1e-9


def max_dim() -> int:
    """Matrix dimension cap; QRTMODAL_MAX_DIM overrides the default."""
    raw = os.environ.get("QRTMODAL_MAX_DIM")
    if raw is None:
        return MAX_DIM_DEFAULT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"QRTMODAL_MAX_DIM must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("QRTMODAL_MAX_DIM must be positive")
    return value
