"""Outside-in layer tracer for qrtmodal.

The program carries no tracing code. This module wraps, from outside, the
public functions of the traced layers plus a few named methods, and patches
every ``qrtmodal.*`` module attribute that is bound to an original, so that
``from .linalg import apply_channel`` in ``qrt`` and the recursive call in
``formulas.evaluate`` both go through the wrapper.

A span is recorded only while an op is active (``begin_op``/``end_op``).
Per function it keeps calls and self time (span time minus the time of
wrapped children). Cached properties such as ``Qrt.functions`` are not
wrapped, so their time counts toward the wrapped caller. A
``ResourceLimitError`` leaving a wrapped function counts once, as a cap hit
of that function's layer. Spans (name, start, end, parent, op) are kept in
memory up to ``span_cap`` and written out by ``save_spans``.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("linalg", "qrt", "translate", "kripke", "formulas", "smc", "io", "generate", "harness")

# Methods wrapped in addition to module-level public functions. A
# constructor is recorded under the class name.
METHODS = {
    "linalg": {"DensityMatrix": ("__init__",)},
    "qrt": {"Qrt": ("validate", "induced_function", "match_named")},
    "smc": {"SmcCategory": ("canonical_morphism",)},
}


def _first_arg(args):
    return (id(args[0]), args[0]) if args else None


def _evaluate_key(args):
    # (model, subformula node, world); model and formula outlive the call
    return ((id(args[0]), id(args[1]), args[2]), None) if len(args) >= 3 else None


# Functions whose repeat work is measured: distinct keys per op over calls.
# A key function returns (key, object to keep alive for the op) or None
# when the call does not pass the arguments positionally.
DISTINCT_KEYS = {
    "Qrt.validate": _first_arg,
    "to_model": _first_arg,
    "evaluate": _evaluate_key,
}


class Tracer:
    def __init__(self, span_cap: int = 1_000_000):
        from qrtmodal.errors import ResourceLimitError

        self._limit_error = ResourceLimitError
        self.names: list[str] = []   # "layer:function"
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.cap_hits = {layer: 0 for layer in LAYERS}
        self.distinct_calls: dict[str, int] = {k: 0 for k in DISTINCT_KEYS}
        self.distinct_seen: dict[str, int] = {k: 0 for k in DISTINCT_KEYS}
        self._op_keys: dict[str, dict] = {k: {} for k in DISTINCT_KEYS}
        self._stack: list[list] = []
        self.op: int | None = None
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._sp_name = array("i")
        self._sp_op = array("i")
        self._sp_parent = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind it in every qrtmodal module."""
        import importlib

        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qrtmodal.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                originals[id(fn)] = self._wrap(fn, layer, name)
            # a method the program no longer has is skipped and reads as 0 calls
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is None or meth not in vars(cls):
                        continue
                    label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                    self._set(cls, meth, self._wrap(vars(cls)[meth], layer, label))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qrtmodal" or mod_name.startswith("qrtmodal.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: str, label: str):
        name_id = len(self.names)
        self.names.append(f"{layer}:{label}")
        self.calls.append(0)
        self.self_s.append(0.0)
        key_fn = DISTINCT_KEYS.get(label)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            return tracer._call(fn, name_id, layer, label, key_fn, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ---------------------------------------------------------------

    def _call(self, fn, name_id, layer, label, key_fn, args, kwargs):
        keyed = key_fn(args) if key_fn is not None else None
        if keyed is not None:
            self._op_keys[label].setdefault(*keyed)
            self.distinct_calls[label] += 1
        stack = self._stack
        idx = len(self._sp_start)
        stored = idx < self.span_cap
        if stored:
            self._sp_name.append(name_id)
            self._sp_op.append(self.op)
            self._sp_parent.append(stack[-1][2] if stack else -1)
            self._sp_start.append(0.0)
            self._sp_end.append(0.0)
        else:
            self.spans_dropped += 1
            idx = -1
        frame = [0.0, 0.0, idx]  # start, child time, span index
        stack.append(frame)
        frame[0] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._limit_error as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                self.cap_hits[layer] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.calls[name_id] += 1
            self.self_s[name_id] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if stored:
                self._sp_start[idx] = start
                self._sp_end[idx] = end

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = None
        for label, keys in self._op_keys.items():
            self.distinct_seen[label] += len(keys)
            keys.clear()

    # -- reporting ---------------------------------------------------------------

    def function_stats(self) -> dict:
        """{"layer:function": (calls, self seconds)} for every called function."""
        return {
            name: (self.calls[i], self.self_s[i])
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[name.split(":", 1)[0]] += self.self_s[i]
        return out

    def lookup(self, layer: str, label: str) -> tuple[int, float]:
        """(calls, self seconds) of one function; (0, 0.0) if it is not wrapped."""
        name = f"{layer}:{label}"
        if name not in self.names:
            return 0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.self_s[i]

    def distinct_ratio(self, label: str) -> float:
        calls = self.distinct_calls[label]
        return self.distinct_seen[label] / calls if calls else 0.0

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._sp_name, dtype=np.int32),
            op=np.frombuffer(self._sp_op, dtype=np.int32),
            parent=np.frombuffer(self._sp_parent, dtype=np.int32),
            start=np.frombuffer(self._sp_start, dtype=np.float64),
            end=np.frombuffer(self._sp_end, dtype=np.float64),
            dropped=np.array(self.spans_dropped),
        )
