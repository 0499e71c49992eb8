"""Numerical tolerance and resource caps.

One tolerance, ``tol``, bounds every matrix-level rule: the Hermiticity
defect, the PSD floor and the trace deviation of a state; the
trace-preservation defect and the Choi PSD floor of a channel; and the
trace-distance radius for matching a matrix to a named state, with two
named states within 2 tol of each other an ambiguity. It defaults to
1e-9: double-precision eigensolves on the matrix sizes this package
allows (dim <= MAX_DIM) stay several orders of magnitude below that.
MAX_DIM, MAX_CHANNELS, MAX_ISO_NODES and MAX_FORMULA_DEPTH are fixed
limits; OBJECT_CAP is the default of a per-call cap. MAX_ISO_NODES bounds
every isomorphism search (``relations.bijection``, which reads it when a
search starts; models_isomorphic, starred_isomorphic, qrt_isomorphic and
iso_conditions run it), one node per candidate image tried.
MAX_FORMULA_DEPTH bounds how many connectives and parentheses may enclose
one atom of a formula: desugaring at most triples that depth (``&``;
``|`` doubles it, and ``->`` and ``<->``, which are nodes, keep it), so
the recursive valuation and printer stay inside Python's default
recursion limit of 1000 frames.
"""

MAX_DIM = 64
MAX_CHANNELS = 10_000
MAX_FORMULA_DEPTH = 200
MAX_ISO_NODES = 10_000_000
OBJECT_CAP = 5
DEFAULT_TOL = 1e-9

