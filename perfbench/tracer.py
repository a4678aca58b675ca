"""Per-layer tracing of the muxfec package from outside the package.

While a :class:`Tracer` is patched in, every public function of each
muxfec module (a *layer*), a few methods (``ColumnSpan.add``,
``ColumnSpan.contains_unit``, ``ErasurePattern.restrict``,
``StreamState.push``) and the private ``singlecode._draw_matrix`` are
replaced by timing wrappers.  A function is patched under every name that
refers to it, so a name one module imported from another
(``singlecode.verify_matrix``, ``cli.random_erasure_sequence``) is
traced too.  The GF(q^2) operations ``FieldSpec.add|sub|mul|inv`` get
count-only wrappers: they run millions of times, so they have no spans and
their time stays in the caller's self time.

Each wrapped call adds to per-function calls, total and self time (total
minus the time its wrapped callees took).  Calls of the coarse functions in
SPAN_NAMES are also kept as spans (id, operation id, name, start, end,
parent span id) in memory and written out by :meth:`Tracer.write_spans`.
Hooks turn return values into the search counters (draws rejected per
reason, attempts, patterns checked) that no return value reports directly.

Work in worker processes (``verify_matrix`` with ``jobs > 1``) is invisible
here; the benchmark's workloads verify with ``jobs=1``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import time
from typing import Callable, Optional

LAYERS = (
    "galois", "linalg", "channel", "singlecode", "muxcode",
    "decoder", "stream", "codespec", "cli", "analysis",
)

# (module, class, method) -> traced name; these join the public functions
METHODS = {
    ("linalg", "ColumnSpan", "add"): "linalg.span_add",
    ("linalg", "ColumnSpan", "contains_unit"): "linalg.contains_unit",
    ("channel", "ErasurePattern", "restrict"): "channel.restrict",
    ("stream", "StreamState", "push"): "stream.push",
}
PRIVATE = {("singlecode", "_draw_matrix"): "singlecode.draws"}

# public function -> traced name where the short name differs
ALIASES = {
    "channel.enumerate_admissible_patterns": "channel.enumerate",
    "channel.random_erasure_sequence": "channel.random_sequence",
    "singlecode.build_single_code": "singlecode.build",
    "muxcode.build_mux_code": "muxcode.build",
    "stream.simulate_stream": "stream.simulate",
}

# count-only GF(q^2) operations: FieldSpec method -> counter
GALOIS_COUNTERS = {"add": "addsub", "sub": "addsub", "mul": "mul", "inv": "inv"}

# functions whose calls are kept as spans; the rest only add to the totals
SPAN_NAMES = frozenset({
    "cli.main", "cli.cmd_build", "cli.cmd_verify", "cli.cmd_simulate",
    "codespec.load", "codespec.save",
    "muxcode.build", "singlecode.build",
    "decoder.verify_matrix", "decoder.decode_message",
    "channel.enumerate", "channel.random_sequence",
    "stream.simulate", "stream.stream_encode",
    "analysis.rate_report",
})


class _Frame:
    __slots__ = ("name", "child", "span_id")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Wrap the muxfec layers while patched in; aggregate calls and times."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.calls: collections.Counter = collections.Counter()
        self.total_s: collections.defaultdict = collections.defaultdict(float)
        self.self_s: collections.defaultdict = collections.defaultdict(float)
        self.layer_total_s: collections.defaultdict = collections.defaultdict(float)
        self.counts: collections.Counter = collections.Counter()
        self.galois = {"addsub": 0, "mul": 0, "inv": 0}
        self.spans: list[tuple] = []
        self.op_id = 0
        self._next_span = 0
        self._stack: list[_Frame] = []
        self._layer_depth: collections.Counter = collections.Counter()
        self._patches: list[tuple] = []
        self._hooks = {
            "singlecode.verify_single_structure": self._on_structure,
            "decoder.verify_matrix": self._on_verify_matrix,
            "linalg.is_mds": self._on_is_mds,
            "muxcode.build": self._on_mux_build,
            "channel.enumerate": self._on_enumerate,
            "decoder.check_pattern": self._on_check_pattern,
            "singlecode.build": self._on_single_build,
            "stream.simulate": self._on_simulate,
        }

    # -- patching ------------------------------------------------------------

    def _targets(self) -> dict:
        """Original function -> its wrapper, for every function to be traced."""
        out = {}
        for layer, mod in self.modules.items():
            for attr, val in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                if val.__module__ != mod.__name__:
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                out[val] = self._wrap(val, name, layer)
        for (layer, attr), name in PRIVATE.items():
            val = getattr(self.modules[layer], attr)
            out[val] = self._wrap(val, name, layer)
        return out

    def patch(self) -> None:
        """Install the wrappers under every module-level name and the methods."""
        if self._patches:
            raise RuntimeError("tracer already patched in")
        wrappers = self._targets()
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._set(mod, attr, wrappers[val])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            self._set(cls, attr, self._wrap(vars(cls)[attr], name, layer))
        field_cls = self.modules["galois"].FieldSpec
        for attr, key in GALOIS_COUNTERS.items():
            self._set(field_cls, attr, self._counted(vars(field_cls)[attr], key))

    def unpatch(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _counted(self, fn: Callable, key: str) -> Callable:
        cells = self.galois

        @functools.wraps(fn)
        def counted(*args):
            cells[key] += 1
            return fn(*args)

        return counted

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        stack = self._stack
        depth = self._layer_depth
        keep_span = name in SPAN_NAMES or layer == "bench"
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = -1
            if keep_span:
                span_id = self._next_span
                self._next_span += 1
            frame = _Frame(name, span_id)
            stack.append(frame)
            depth[layer] += 1
            error: Optional[BaseException] = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame.child
                if not depth[layer]:
                    self.layer_total_s[layer] += dur
                if parent is not None:
                    parent.child += dur
                if keep_span:
                    self.spans.append((span_id, self.op_id, name, t0, t1, _span_parent(stack)))
                if hook is not None:
                    hook(args, kwargs, result, error, parent.name if parent else None)

        return traced

    # -- counters from return values ------------------------------------------

    def _on_structure(self, args, kwargs, result, error, parent):
        if error is not None:
            return
        if result.passed:
            self.counts["singlecode.structure_pass"] += 1
            return
        for field, reason in (("g1_mds", "g1_mds"), ("g2_mds", "g2_mds"),
                              ("special_field_ok", "special_field")):
            if not getattr(result, field):
                self.counts[f"singlecode.reject.{reason}"] += 1

    def _on_verify_matrix(self, args, kwargs, result, error, parent):
        if error is not None:
            return
        self.counts["decoder.patterns_checked"] += result.patterns_checked
        if not result.passed:
            if parent == "singlecode.build":
                self.counts["singlecode.reject.achievability"] += 1
            elif parent == "muxcode.build":
                self.counts["muxcode.reject.achievability"] += 1

    def _on_is_mds(self, args, kwargs, result, error, parent):
        if error is None and parent == "muxcode.build" and not result:
            self.counts["muxcode.reject.left_mds"] += 1

    def _on_mux_build(self, args, kwargs, result, error, parent):
        if error is None:
            self.counts["muxcode.built"] += 1
            self.counts["muxcode.q_sum"] += result.field.q

    def _on_enumerate(self, args, kwargs, result, error, parent):
        maximal = kwargs.get("maximal_only", args[2] if len(args) > 2 else False)
        if error is None and maximal:
            self.counts["channel.patterns_maximal"] += len(result)

    def _on_check_pattern(self, args, kwargs, result, error, parent):
        # simulate_stream decodes each distinct induced pattern once
        if parent == "stream.simulate":
            self.counts["stream.distinct_patterns"] += 1

    def _on_simulate(self, args, kwargs, result, error, parent):
        if error is None:
            self.counts["stream.diagonals"] += result.diagonals_checked

    def _on_single_build(self, args, kwargs, result, error, parent):
        # a constituent that exhausts its tries is only visible as the exception
        if isinstance(error, RuntimeError) and parent == "muxcode.build":
            self.counts["muxcode.reject.constituent"] += 1

    # -- results --------------------------------------------------------------

    def search_counts(self) -> dict:
        """Deterministic search counters: a snapshot to difference per operation."""
        c = dict(self.counts)
        c["singlecode.draws"] = self.calls["singlecode.draws"]
        c["singlecode.build.calls"] = self.calls["singlecode.build"]
        c["decoder.verify_matrix.calls"] = self.calls["decoder.verify_matrix"]
        # every attempt of build_mux_code ends in one reject or in the built code
        c["muxcode.attempts"] = c.get("muxcode.built", 0) + sum(
            c.get(f"muxcode.reject.{r}", 0) for r in ("constituent", "left_mds", "achievability"))
        return c

    def run_op(self, name: str, fn: Callable, *args):
        """Call fn(*args) as one benchmark operation: a new operation id and a root span."""
        self.op_id += 1
        return self._wrap(fn, name, "bench")(*args)

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many were written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, op_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "op": op_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
        return len(self.spans)


def _span_parent(stack: list) -> int:
    for frame in reversed(stack):
        if frame.span_id >= 0:
            return frame.span_id
    return -1
