"""Spans around calls into the toolkit's layers, recorded from outside.

`Tracer.install` wraps every public function of each layer module, plus
`exactla.Matrix.mul` and the construction of `comod.Comodule`, and puts the
wrapper wherever a module of the package looks the name up (so both
`weakbia.comultiply` and `structure.comultiply` are wrapped).  A span is
(id, parent id, operation id, name, start, end); spans are kept in compact
arrays and written out when the run ends.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("serialize", "structure", "weakbia", "comod", "tannaka", "decomp", "exactla")
ROOT = "bench.op"

# span names whose inclusive time is reported (outermost span of the name only)
BUSY = (
    "comod.tensor_over_source",
    "comod.Comodule",
    "tannaka.comonoidal_structure",
    "decomp.split_comodule",
    "serialize.wba_from_document",
    "serialize.functor_from_document",
)


def _key_build(args, kwargs):
    alg, coa = args[0], args[1]
    return hash((alg.field, alg.mult, coa.comult))


def _key_tensor(args, kwargs):
    a, b = args[0], args[1]
    return hash((a.coaction, b.coaction))


DISTINCT = {
    "weakbia.build_weak_bialgebra": _key_build,
    "comod.tensor_over_source": _key_tensor,
}


class Tracer:
    def __init__(self, package: str = "weakhopf"):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("q")
        self.parents = array("q")
        self.name_of = array("i")
        self.op_of = array("q")
        self.next_id = 0
        self.stack = [-1]
        self.op = -1
        self.rref_cells = 0
        self.round_keys = {name: set() for name in DISTINCT}
        self.round_calls = {name: 0 for name in DISTINCT}
        self.distinct_ratios = {name: [] for name in DISTINCT}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        key = DISTINCT.get(name)
        starts, ends, ids, parents = self.starts, self.ends, self.ids, self.parents
        name_of, op_of, stack = self.name_of, self.op_of, self.stack
        is_rref = name == "exactla.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                tracer.round_keys[name].add(key(args, kwargs))
                tracer.round_calls[name] += 1
            elif is_rref:
                tracer.rref_cells += args[0].rows * args[0].cols
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts.append(t0)
                ends.append(t1)
                ids.append(sid)
                parents.append(parent)
                name_of.append(nid)
                op_of.append(tracer.op)

        return wrapper

    def install(self):
        """Wrap the layers' public functions in every module of the package."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"{self.package}.{layer}"]
            for attr, val in list(vars(mod).items()):
                if (
                    isinstance(val, types.FunctionType)
                    and not attr.startswith("_")
                    and val.__module__ == mod.__name__
                ):
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, w)
        exactla = mods[f"{self.package}.exactla"]
        comod = mods[f"{self.package}.comod"]
        for cls, attr, name in (
            (exactla.Matrix, "mul", "exactla.Matrix.mul"),
            (comod.Comodule, "__init__", "comod.Comodule"),
        ):
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- operations and rounds ----------------------------------------------

    def begin_round(self):
        for name in DISTINCT:
            calls = self.round_calls[name]
            if calls:
                self.distinct_ratios[name].append(len(self.round_keys[name]) / calls)
            self.round_keys[name] = set()
            self.round_calls[name] = 0

    def run_op(self, op_index: int, fn):
        """Run fn as operation op_index under a root span; returns (result, seconds)."""
        self.op = op_index
        root = self._wrap(ROOT, fn)
        t0 = perf_counter()
        try:
            return root(), perf_counter() - t0
        finally:
            self.op = -1

    # -- results ---------------------------------------------------------------

    def span_table(self):
        """Arrays indexed by span id: time covered by children, name id,
        parent id and duration.  Self time is duration minus covered."""
        n = self.next_id
        covered = array("d", bytes(8 * n))
        name_by_id = array("i", bytes(4 * n))
        parent_by_id = array("q", bytes(8 * n))
        dur_by_id = array("d", bytes(8 * n))
        for sid, parent, nid, t0, t1 in zip(self.ids, self.parents, self.name_of, self.starts, self.ends):
            d = t1 - t0
            dur_by_id[sid] = d
            name_by_id[sid] = nid
            parent_by_id[sid] = parent
            if parent >= 0:
                covered[parent] += d
        return covered, name_by_id, parent_by_id, dur_by_id

    def metrics(self, ops_attempted: int) -> dict:
        """Per-layer metrics, each a mean per operation attempted."""
        self.begin_round()
        covered, name_by_id, parent_by_id, dur_by_id = self.span_table()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        busy: dict[str, float] = {}
        busy_ids = {self.name_ids[b] for b in BUSY if b in self.name_ids}
        for sid in self.ids:
            nid = name_by_id[sid]
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur_by_id[sid] - covered[sid]
            if nid in busy_ids:
                up = parent_by_id[sid]
                while up >= 0 and name_by_id[up] != nid:
                    up = parent_by_id[up]
                if up < 0:
                    busy[name] = busy.get(name, 0.0) + dur_by_id[sid]
        per = 1.0 / max(1, ops_attempted)
        out = {}
        for layer in LAYERS:
            names = [nm for nm in calls if nm.startswith(layer + ".")]
            out[f"{layer}.calls"] = (sum(calls[nm] for nm in names) * per, "calls/op")
            out[f"{layer}.self_s"] = (sum(self_s[nm] for nm in names) * per, "s/op")

        def c(name):
            return calls.get(name, 0) * per

        def s(name):
            return self_s.get(name, 0.0) * per

        def b(name):
            return busy.get(name, 0.0) * per

        def ratio(name):
            r = self.distinct_ratios[name]
            return sum(r) / len(r) if r else 0.0

        out.update({
            "weakbia.verify_weak_bialgebra.self_s": (s("weakbia.verify_weak_bialgebra"), "s/op"),
            "weakbia.build_weak_bialgebra.calls": (c("weakbia.build_weak_bialgebra"), "calls/op"),
            "weakbia.build_weak_bialgebra.distinct_per_call": (ratio("weakbia.build_weak_bialgebra"), "ratio"),
            "weakbia.lemma_suite.self_s": (s("weakbia.lemma_suite"), "s/op"),
            "structure.multiply.calls": (c("structure.multiply"), "calls/op"),
            "structure.comultiply.calls": (c("structure.comultiply"), "calls/op"),
            "exactla.rref.calls": (c("exactla.rref"), "calls/op"),
            "exactla.rref.self_s": (s("exactla.rref"), "s/op"),
            "exactla.rref.cells": (self.rref_cells * per, "cells/op"),
            "exactla.Matrix.mul.calls": (c("exactla.Matrix.mul"), "calls/op"),
            "exactla.Matrix.mul.self_s": (s("exactla.Matrix.mul"), "s/op"),
            "comod.tensor_over_source.calls": (c("comod.tensor_over_source"), "calls/op"),
            "comod.tensor_over_source.busy_s": (b("comod.tensor_over_source"), "s/op"),
            "comod.tensor_over_source.distinct_per_call": (ratio("comod.tensor_over_source"), "ratio"),
            "comod.Comodule.calls": (c("comod.Comodule"), "calls/op"),
            "comod.Comodule.busy_s": (b("comod.Comodule"), "s/op"),
            "comod.comodule_map_verdict.self_s": (s("comod.comodule_map_verdict"), "s/op"),
            "tannaka.comonoidal_structure.calls": (c("tannaka.comonoidal_structure"), "calls/op"),
            "tannaka.comonoidal_structure.busy_s": (b("tannaka.comonoidal_structure"), "s/op"),
            "tannaka.reconstruct_weak_bialgebra_map.self_s": (s("tannaka.reconstruct_weak_bialgebra_map"), "s/op"),
            "decomp.decompose.self_s": (s("decomp.decompose"), "s/op"),
            "decomp.split_comodule.busy_s": (b("decomp.split_comodule"), "s/op"),
            "serialize.wba_from_document.busy_s": (b("serialize.wba_from_document"), "s/op"),
            "serialize.functor_from_document.busy_s": (b("serialize.functor_from_document"), "s/op"),
        })
        return out

    def write_spans(self, prefix):
        """Write <prefix>.bin (the span columns back to back, native byte order,
        in the order the spans ended) and <prefix>.json (column layout and the
        span-name table)."""
        columns = (
            ("span", self.ids), ("parent", self.parents), ("op", self.op_of),
            ("name", self.name_of), ("start_s", self.starts), ("end_s", self.ends),
        )
        with open(f"{prefix}.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "count": len(self.ids),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "names": self.names,
        }
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
