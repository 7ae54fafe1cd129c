"""Span recorder that wraps the package's public functions from outside.

``Recorder.install()`` replaces each traced function by a wrapper that
records a span (name, start, end, parent) and restores the originals on
exit.  A function is replaced in every ``wittartin`` module that holds it
(``verify`` imports ``chu_form``, ``report`` imports ``build_chain``, ...),
and methods are replaced on their class.  Spans stay in memory until
``write`` is called at the end of a run.

``exactlin.dot`` is deliberately not traced: it runs millions of times per
pass and its wrapper would dominate the overhead.  ``LieAlgebra.bracket``
is only counted, for the same reason.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> span name.  A dotted attribute is a method.
TRACED = {
    ("exactlin", "Matrix.rref"): "exactlin.rref",
    ("exactlin", "Matrix.__matmul__"): "exactlin.matmul",
    ("exactlin", "Matrix.apply"): "exactlin.apply",
    ("exactlin", "Matrix.det"): "exactlin.det",
    ("exactlin", "gram_on"): "exactlin.gram_on",
    ("liecore", "killing_form"): "liecore.killing_form",
    ("liecore", "stabilizer_of_momentum"): "liecore.stabilizer_of_momentum",
    ("liecore", "chu_form"): "liecore.chu_form",
    ("splitting", "validate"): "splitting.validate",
    ("splitting", "build_chain"): "splitting.build_chain",
    ("splitting", "chain_checks"): "splitting.chain_checks",
    ("pointmodel", "build_model"): "pointmodel.build_model",
    ("decomposition", "decompose_G"): "decomposition.decompose_G",
    ("decomposition", "decompose_H"): "decomposition.decompose_H",
    ("decomposition", "slice_form"): "decomposition.slice_form",
    ("decomposition", "slice_momentum"): "decomposition.slice_momentum",
    ("decomposition", "slice_momentum_forms"):
        "decomposition.slice_momentum_forms",
    ("tube", "omega_tube"): "tube.omega_tube",
    ("tube", "phi_tilde"): "tube.phi_tilde",
    ("tube", "expm"): "tube.expm",
    ("verify", "run_all"): "verify.run_all",
    ("verify", "liecore_checks"): "verify.liecore_checks",
    ("verify", "model_checks"): "verify.model_checks",
    ("verify", "decomposition_checks"): "verify.decomposition_checks",
    ("verify", "tube_checks"): "verify.tube_checks",
    ("instancefile", "from_dict"): "instancefile.from_dict",
    ("report", "build_report"): "report.build_report",
}
COUNTED = {("liecore", "LieAlgebra.bracket"): "liecore.bracket"}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Recorder:
    """Spans of one traced pass, kept in memory.

    ``spans[i]`` is ``[name, parent index or -1, start, end, outermost]``;
    ``outermost`` is False when a span of the same name is open around it,
    so totals per name do not count recursive time twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.rref_max_cells = 0
        self.rref_max_bits = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, depth == 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def _wrap(self, name: str, fn):
        rec = self

        if name == "exactlin.rref":
            def traced(*args, **kwargs):
                idx = rec._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec._close(idx)
                m = args[0]
                rec.rref_max_cells = max(rec.rref_max_cells, m.rows * m.cols)
                bits = max((_bits(x) for row in out[0].entries for x in row),
                           default=0)
                rec.rref_max_bits = max(rec.rref_max_bits, bits)
                return out
        else:
            def traced(*args, **kwargs):
                idx = rec._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec._close(idx)
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> "Recorder":
        for table, make in ((TRACED, self._wrap), (COUNTED, self._counter)):
            for (module, attr), name in table.items():
                self._patch(module, attr, make(name, _resolve(module, attr)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, module: str, attr: str, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"wittartin.{module}"], cls_name)
            self._patches.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)
            return
        original = _resolve(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wittartin"
                                   or mod_name.startswith("wittartin.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds (outermost spans) and self
        seconds (duration minus the time covered by direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, parent, start, end, outer) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            if outer:
                t["s"] += end - start
            t["self_s"] += end - start - child[i]
        return out

    def write(self, fh, pass_index: int) -> None:
        """Append the spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            fh.write(json.dumps([pass_index, i, parent, name,
                                 round(start - t0, 9), round(end - t0, 9)]))
            fh.write("\n")


def _resolve(module: str, attr: str):
    obj = sys.modules[f"wittartin.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj
