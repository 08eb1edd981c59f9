"""Spans and counters at spinorlab's layer boundaries, recorded from outside.

``Tracer.install`` wraps every public function of each package module and
a few named methods, and rebinds every module-level reference to them (so
``geometry``'s own ``nullspace`` name is traced too).  Spans are kept in
flat arrays and written out by ``save``; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("algebra", "clifford", "orbits", "octospin", "linalg", "jets",
          "geometry", "cauchy", "cli")
METHODS = (("jets", "JetContext", ("__init__", "mul_arrays", "matmul_arrays")),
           ("clifford", "SpinRepresentation", ("invariant_forms",)),
           ("cauchy", "JetSeries", ("__mul__", "__rmul__")))
# Functions whose inclusive time is reported on its own: metric -> (layer, name).
TIMED = {
    "jets.context_build_s": ("jets", "JetContext.__init__"),
    "geometry.ricci_numeric_s": ("geometry", "ricci_numeric"),
    "geometry.ricci_paper_s": ("geometry", "ricci_paper"),
    "geometry.adapted_coframe_s": ("geometry", "adapted_coframe"),
    "geometry.holonomy_span_s": ("geometry", "holonomy_span"),
    "geometry.curvature_space_dim_s": ("geometry", "curvature_space_dim"),
    "cauchy.solve_s": ("cauchy", "solve_ricci_ivp"),
    "cauchy.verify_s": ("cauchy", "verify_ricci_flat"),
}
CALLS = {
    "jets.mul_calls": ("jets", "JetContext.mul_arrays"),
    "jets.context_builds": ("jets", "JetContext.__init__"),
    "linalg.rank_decisions": ("linalg", "guarded_rank"),
    "clifford.invariant_form_solves": ("clifford", "SpinRepresentation.invariant_forms"),
    "cauchy.bracket_calls": ("cauchy", "bracket_series"),
    "cauchy.series_muls": ("cauchy", "JetSeries.__mul__"),
}
# linalg functions that run one SVD of their first argument themselves.
SVD_FUNCTIONS = ("guarded_rank", "nullspace", "orthonormal_span")


def _public_callables(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.inclusive_s: list[float] = []
        self._depth: list[int] = []
        self._fid: dict[tuple[str, str], int] = {}
        # span arrays: operation id, function id, parent span, start, end
        self.op_id = array("q")
        self.span_fid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.current_op = -1
        self.svd_cells = 0
        self.max_svd_cells = 0
        self.refusals = 0
        self.contexts_seen: set = set()
        self.context_repeats = 0
        self.reps_seen: set = set()
        self.form_repeats = 0
        self._binds: list | None = None

    # -- wrapping -------------------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        fid = len(self.names)
        self._fid[(layer, name)] = fid
        self.names.append((layer, name))
        self.calls.append(0)
        self.self_s.append(0.0)
        self.inclusive_s.append(0.0)
        self._depth.append(0)
        return fid

    def _note(self, layer: str, name: str, args) -> None:
        """Counters that need the call's arguments."""
        if layer == "linalg" and name in SVD_FUNCTIONS:
            mat = args[0]
            cells = (int(np.asarray(mat).size) if name != "orthonormal_span"
                     else sum(int(np.asarray(v).size) for v in mat))
            self.svd_cells += cells
            self.max_svd_cells = max(self.max_svd_cells, cells)
        elif name == "JetContext.__init__":
            key = (args[1], args[2])
            self.context_repeats += key in self.contexts_seen
            self.contexts_seen.add(key)
        elif name == "SpinRepresentation.invariant_forms":
            key = (args[0].p, args[0].q)
            self.form_repeats += key in self.reps_seen
            self.reps_seen.add(key)

    def _wrap(self, layer: str, name: str, fn):
        fid = self._register(layer, name)
        noted = (name in SVD_FUNCTIONS and layer == "linalg"
                 or name in ("JetContext.__init__", "SpinRepresentation.invariant_forms"))
        refusal = importlib.import_module("spinorlab.linalg").RankAmbiguityError
        counts_refusals = (layer, name) == ("linalg", "guarded_rank")
        stack, child = self._stack, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if noted:
                self._note(layer, name, args)
            span = len(self.start)
            self.op_id.append(self.current_op)
            self.span_fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(span)
            child.append(0.0)
            self._depth[fid] += 1
            start = clock()
            self.start.append(start)
            try:
                return fn(*args, **kwargs)
            except refusal:
                if counts_refusals:
                    self.refusals += 1
                raise
            finally:
                end = clock()
                self.end[span] = end
                stack.pop()
                dur = end - start
                self.self_s[fid] += dur - child.pop()
                self._depth[fid] -= 1
                if not self._depth[fid]:
                    self.inclusive_s[fid] += dur
                self.calls[fid] += 1
                if child:
                    child[-1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced reference."""
        modules = {layer: importlib.import_module(f"spinorlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_callables(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        out = []
        for module in modules.values():
            for name, obj in vars(module).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    out.append((module, name, obj, wrappers[id(obj)][1]))
        for layer, cls_name, methods in METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(layer, f"{cls_name}.{meth}", fn))
                out.append((cls, meth, fn, wrappers[id(fn)][1]))
        return out

    def install(self) -> None:
        if self._binds is None:
            self._binds = self._bindings()
        for owner, name, _, wrapper in self._binds:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._binds or ():
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def top_level_s(self) -> float:
        """Total duration of spans with no parent: the traced op time."""
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[par < 0].sum())

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), s in zip(self.names, self.self_s):
            out[layer] += s
        return out

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, per round of the workload's operation mix."""
        out = {f"{layer}.busy_s": s / rounds for layer, s in self.layer_self_s().items()}
        for metric, key in TIMED.items():
            out[metric] = self.inclusive_s[self._fid[key]] / rounds
        for metric, key in CALLS.items():
            out[metric] = self.calls[self._fid[key]] / rounds
        builds = self.calls[self._fid["jets", "JetContext.__init__"]]
        solves = self.calls[self._fid["clifford", "SpinRepresentation.invariant_forms"]]
        out["jets.context_repeat_ratio"] = self.context_repeats / builds if builds else 0.0
        out["clifford.invariant_form_repeat_ratio"] = (
            self.form_repeats / solves if solves else 0.0)
        out["linalg.svd_cells"] = self.svd_cells / rounds
        out["linalg.max_svd_cells"] = float(self.max_svd_cells)
        out["linalg.refusals"] = self.refusals / rounds
        return out

    def save(self, path: Path) -> None:
        """Write the spans (npz arrays) and the function names (JSON) out."""
        np.savez(path.with_suffix(".npz"),
                 op=np.frombuffer(self.op_id, dtype=np.int64),
                 function=np.frombuffer(self.span_fid, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
        path.with_suffix(".functions.json").write_text(
            json.dumps([f"{layer}.{name}" for layer, name in self.names]) + "\n",
            encoding="utf-8")
