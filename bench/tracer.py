"""Outside-in tracer for mtk: spans around the public functions of each layer.

The tracer wraps functions from the benchmark's own code; nothing inside
`src/mtk` changes.  mtk modules bind names directly (`coloring` and
`polytopes` import `solve_max_slack`, `polytopes` imports `solve` and
`chi_star`), so every module attribute that holds a traced function
object is patched, and every one is restored by `stop()`.

Each call records one span: name, start, end and the enclosing span.
Spans are kept in flat arrays (24 bytes each) and written out at the
end.  A function's self time is its span time minus the time covered
by its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# The layers the benchmark reports, as `src/mtk` module names.
LAYERS = ("lp", "coloring", "matroid", "polytopes", "topology", "core", "meshulam", "cli")

# Bit primitives called per subset inside every sweep: a span around each
# call would cost more than the call and bury their callers' time.
PRIMITIVES = {"core.bit_count", "core.mask_of"}

# Methods are traced by name: wrapping every public method would put a
# span around each subset test of the 2^n sweeps (`Complex.rank_of`,
# `RatVec.sum_over`), which measures the tracer, not mtk.
METHODS = {
    "matroid": {"Matroid": ("rank", "flats"), "MatroidSystem": ("intersection_complex",)},
    "core": {"Complex": ("faces",)},
}


def _lp_cells(args, kwargs):
    p = args[0] if args else kwargs["p"]
    return len(p.rows) * len(p.c)


def _max_slack_cells(args, kwargs):
    amat = args[0] if args else kwargs["amat"]
    return len(amat) * (len(amat[0]) if amat else 0)


def _snf_cells(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    return len(mat) * (len(mat[0]) if mat else 0)


# Work counts taken from the arguments: rows x variables of each LP and
# rows x columns of each boundary matrix.
CELLS = {
    "lp.solve": _lp_cells,
    "lp.solve_max_slack": _max_slack_cells,
    "topology.snf_diagonal": _snf_cells,
}


def traced_functions(package) -> dict[str, object]:
    """{"module.name": function} for the public functions of every layer,
    plus the methods named in METHODS."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for name, obj in vars(mod).items():
            # A generator function returns before its work is done, so a
            # span would time only its creation; its caller's span holds it.
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)
                and f"{layer}.{name}" not in PRIMITIVES
            ):
                out[f"{layer}.{name}"] = obj
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out[f"{layer}.{cls_name}.{meth}"] = vars(cls)[meth]
    return out


class Tracer:
    """Records spans for the traced functions while started."""

    def __init__(self, package, cap_error: type[BaseException]):
        self.package = package
        self.cap_error = cap_error
        self.functions = traced_functions(package)
        self.names = list(self.functions)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._patched: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cells = [0] * len(self.names)
        self.cap_hits = [0] * len(self.names)
        self._stack = [-1]

    # -- patching ----------------------------------------------------------

    def bindings(self) -> dict[str, list[tuple[object, str]]]:
        """Every (owner, attribute) that holds each traced function: the
        package's modules and the package's classes found in them."""
        prefix = self.package.__name__
        by_id = {id(fn): name for name, fn in self.functions.items()}
        owners = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            owners[id(mod)] = mod
            for v in vars(mod).values():
                if inspect.isclass(v) and v.__module__.startswith(prefix):
                    owners[id(v)] = v
        out: dict[str, list[tuple[object, str]]] = {name: [] for name in self.names}
        for owner in owners.values():
            for attr, val in list(vars(owner).items()):
                name = by_id.get(id(val))
                if name is not None:
                    out[name].append((owner, attr))
        return out

    def start_tracing(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already started")
        wrappers = {name: self._wrap(name, fn) for name, fn in self.functions.items()}
        for name, places in self.bindings().items():
            for owner, attr in places:
                self._patched.append((owner, attr, self.functions[name]))
                setattr(owner, attr, wrappers[name])

    def stop(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        nid = self._ids[name]
        cells_of = CELLS.get(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        cells, cap_hits, cap_error = self.cells, self.cap_hits, self.cap_error
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if cells_of is not None:
                cells[nid] += cells_of(args, kwargs)
            stack.append(sid)
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            except cap_error as e:
                # Counted once, at the innermost traced function it leaves.
                if not getattr(e, "_bench_cap_counted", False):
                    e._bench_cap_counted = True
                    cap_hits[nid] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "self_s", "total_s", "cells", "cap_hits"}}."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.name_id)
        for sid in range(len(self.name_id)):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
        self_s = [0.0] * n
        for sid, nid in enumerate(self.name_id):
            dur = self.end[sid] - self.start[sid]
            calls[nid] += 1
            total[nid] += dur
            self_s[nid] += dur - child[sid]
        return {
            name: {
                "calls": calls[i],
                "self_s": self_s[i],
                "total_s": total[i],
                "cells": self.cells[i],
                "cap_hits": self.cap_hits[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Spans as one binary file of four arrays plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name_id),
            "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
