"""Span tracer for the benchmark's traced runs.

The tracer wraps, from outside the library, the public functions of each
``cartanconn`` layer module, the public methods of the classes those
modules define (plus ``__init__`` and ``__call__``), and the coefficient
map ``conn.coeff`` of every model the ``models`` builders return. A wrapped
call records:

* a count and a self time per function name, where self time is the call's
  duration minus the time covered by wrapped calls it made;
* a span ``(name, start, end, parent span, op id)`` when the call crosses a
  layer boundary, i.e. its caller is in another layer or is the benchmark.
  Calls within one layer (``fieldexpr.evaluate`` recursing into itself,
  ``liegroup.compose`` calling ``liegroup.group_element``) are aggregated
  but not stored. Every stored span stays in memory (32 bytes in flat
  arrays) until the run ends and ``write_spans`` writes them out.

``install`` and ``uninstall`` swap the module and class wrappers in and
out, so untraced rounds of a traced run execute the original functions.
The ``conn.coeff`` wrappers stay on their models; like every wrapper they
test ``Tracer.active`` first, so they cost one attribute read when tracing
is off.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "cartanconn"
LAYERS = ("liegroup", "principal", "transport", "cartan", "models", "fieldexpr", "maxwell", "cli")
BENCH_LAYER = "bench"


def _is_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    # functools.lru_cache objects are callables with cache_info
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    """Wraps the layer modules of ``PACKAGE``; see the module docstring."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.op_id = -1
        self.lift_depth = 0
        self.lift_steps = 0
        self.implied_steps = 0.0
        self.coeff_in_lifts = 0
        self._patches: list[tuple] = []
        self._build()

    # -- bookkeeping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _open_span(self, nid: int, start: float, parent: int) -> int:
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        return len(self.span_name) - 1

    def _enter(self, nid: int, layer: str) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        anchor = parent[4] if parent is not None else -1
        start = time.perf_counter()
        if parent is None or parent[3] != layer:
            sid = anchor = self._open_span(nid, start, anchor)
        else:
            sid = -1
        frame = [start, 0.0, nid, layer, anchor, sid]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[0]
        nid = frame[2]
        self.calls[nid] += 1
        self.self_s[nid] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if frame[5] >= 0:
            self.span_end[frame[5]] = end

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str, on_exit=None, lift: bool = False, coeff: bool = False):
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if coeff and tracer.lift_depth:
                tracer.coeff_in_lifts += 1
            if lift:
                tracer.lift_depth += 1
            frame = tracer._enter(nid, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if lift:
                    tracer.lift_depth -= 1
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def _count_lift(self, signature):
        def on_exit(args, kwargs, lifted):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            step = float(bound.arguments["step"])
            path = bound.arguments["path"]
            self.lift_steps += len(lifted.ts) - 1
            self.implied_steps += sum((seg.t1 - seg.t0) / step for seg in path.segments)

        return on_exit

    def wrap_coeff(self, conn) -> None:
        """Count and time ``conn.coeff`` of a model from now on; the
        wrapper stays on the model."""
        if not getattr(conn.coeff, "__bench_traced__", False):
            object.__setattr__(conn, "coeff", self._wrap(conn.coeff, "models.coeff", coeff=True))

    def _wrap_built_coeff(self, args, kwargs, structure) -> None:
        """Post-hook of the ``models`` builders, for models built inside a
        traced op (the CLI builds its own)."""
        conn = getattr(structure, "conn", None)
        if conn is not None:
            self.wrap_coeff(conn)

    def _build(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__ and not issubclass(obj, (enum.Enum, BaseException)):
                        self._wrap_class(layer, obj)
                elif _is_function(obj, module.__name__):
                    on_exit = None
                    lift = False
                    if layer == "transport" and attr == "horizontal_lift":
                        on_exit = self._count_lift(inspect.signature(obj))
                        lift = True
                    elif layer == "models":
                        on_exit = self._wrap_built_coeff
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", on_exit, lift=lift))
        # rebind every name under which the package exposes a wrapped
        # function: module globals (including ``from x import f`` aliases)
        # and entries of module-level registries such as ``PRESETS``
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append(("attr", module, attr, obj, hit[1]))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        hit = originals.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append(("item", obj, key, value, hit[1]))

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, types.FunctionType):
                wrapper = self._wrap(raw, name)
            else:
                continue
            self._patches.append(("cls", cls, attr, raw, wrapper))

    # -- switching ---------------------------------------------------------------

    def _apply(self, use_wrapper: bool) -> None:
        for kind, owner, key, original, wrapper in self._patches:
            value = wrapper if use_wrapper else original
            if kind == "item":
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        self._apply(True)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        self._apply(False)

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> list:
        """Open the benchmark-level span that parents one op's calls."""
        self.op_id = op_id
        return self._enter(self._name_id(f"{BENCH_LAYER}.op.{kind}"), BENCH_LAYER)

    def end_op(self, frame: list) -> None:
        self._exit(frame)

    # -- results -----------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` for every name that was called."""
        return {
            name: (self.calls[i], self.self_s[i])
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write_spans(self, path) -> None:
        """Write every stored span to an ``.npz`` file: per span ``name``
        (an index into ``names``), ``start_s`` and ``end_s`` (seconds from
        the first span), ``parent`` (a span index, -1 for roots) and
        ``op``."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        origin = start[0] if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_s=start - origin,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - origin,
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
