"""Span tracer that times nnobf's layers from outside.

Each traced function is replaced, at the module attribute through which its
caller looks it up, by a wrapper that records a span: name, start, end,
parent span and operation id, plus a few attributes read from the call's
arguments and result.  Nothing inside ``src/`` is changed; ``uninstall``
puts every original back.

Spans are kept in memory and written out once, at the end of the run.
A function whose attribute no longer exists is reported as unpatched, and a
metric whose span was never entered is reported as absent, never as zero, so
a refactor that moves an entry point shows up as a missing metric rather than
a fake speed-up.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nnobf import (bundle, extractor, interpreter, model_format, obfuscator,
                   similarity)
from nnobf.model_format import CUSTOM_SENTINEL, BuiltinOp

KERNEL_KINDS = ("conv2d", "depthwise_conv2d", "dense", "max_pool2d",
                "avg_pool2d", "softmax", "elementwise", "shape")

_KIND = {
    BuiltinOp.CONV_2D: "conv2d",
    BuiltinOp.DEPTHWISE_CONV_2D: "depthwise_conv2d",
    BuiltinOp.DENSE: "dense",
    BuiltinOp.MAX_POOL_2D: "max_pool2d",
    BuiltinOp.AVG_POOL_2D: "avg_pool2d",
    BuiltinOp.SOFTMAX: "softmax",
    BuiltinOp.RELU: "elementwise",
    BuiltinOp.RELU6: "elementwise",
    BuiltinOp.ADD: "elementwise",
    BuiltinOp.CONCAT: "shape",
    BuiltinOp.RESHAPE: "shape",
    BuiltinOp.FLATTEN: "shape",
}

OBFUSCATOR_FNS = ("obfuscate", "rename", "encapsulate_parameters",
                  "obfuscate_shapes", "inject_shortcuts",
                  "inject_extra_layers", "plan_to_json", "plan_from_json",
                  "reconstruct")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op_id: int
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _kernel_name(args, kwargs) -> str:
    return "kernels." + _KIND[args[0]]


def _kernel_attrs(args, kwargs, result) -> dict:
    # shapes and options only; flop and byte counts are derived at the end
    return {"kind": args[0], "in": [a.shape for a in args[1]],
            "out": [o.shape for o in result], "opts": args[2]}


def _run_attrs(args, kwargs, result) -> dict:
    graph, bundle_ = args[0], args[1]
    decoys = 0
    if bundle_ is not None:
        records = bundle_.records
        for op in graph.operators:
            oc = graph.opcodes[op.opcode_index]
            if oc.builtin_code == CUSTOM_SENTINEL and records[oc.custom_name].is_decoy:
                decoys += 1
    trace = result[1]
    return {"ops": len(trace.output_shapes), "decoys": decoys,
            "peak_live_bytes": trace.peak_live_bytes}


def _obfuscate_attrs(args, kwargs, result) -> dict:
    config = args[1]
    plan = result[2]
    return {"shortcuts": (len(plan.injected_shortcuts), config.n_shortcuts),
            "layers": (len(plan.injected_layers), config.n_extra_layers)}


def _labeled_attrs(args, kwargs, result) -> dict:
    return {"nodes": result.n}


# (module, attribute, span name, attribute reader); the name may be a
# function of the call's arguments.
TRACE_POINTS = (
    [(interpreter, "run", "interpreter.run", _run_attrs),
     (interpreter, "execute_builtin", _kernel_name, _kernel_attrs),
     (interpreter, "decode_options", "interpreter.decode_options", None),
     (model_format, "serialize_model", "model_format.serialize_model", None),
     (model_format, "parse_model", "model_format.parse_model", None),
     (model_format, "validate", "model_format.validate", None),
     (obfuscator, "validate", "model_format.validate", None),
     (extractor, "parse_model", "model_format.parse_model", None),
     (bundle, "serialize_bundle", "bundle.serialize_bundle", None),
     (bundle, "load_bundle", "bundle.load_bundle", None),
     (obfuscator, "serialize_bundle", "bundle.serialize_bundle", None)]
    + [(obfuscator, fn, f"obfuscator.{fn}",
        _obfuscate_attrs if fn == "obfuscate" else None)
       for fn in OBFUSCATOR_FNS]
    + [(similarity, "to_labeled_graph", "similarity.to_labeled_graph",
        _labeled_attrs),
       (similarity, "propagation_kernel", "similarity.propagation_kernel", None),
       (extractor, "parse_in_buffer", "extractor.parse_in_buffer", None),
       (extractor, "convert", "extractor.convert", None)])


class Tracer:
    """Records spans while ``active``; a paused tracer calls straight through."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.active = False
        self.op_id = -1
        self.unpatched: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, reader in TRACE_POINTS:
            original = getattr(module, attr, None)
            if original is None:
                self.unpatched.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, reader))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.active = False

    def _wrap(self, original, name, reader):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(label, t0, t1, parent, self.op_id)
            if reader is not None:
                spans[idx].attrs = reader(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def write(self, path: Path, env: dict) -> None:
        """One JSON object per line: the environment, then every span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns,
                                     "parent": s.parent, "op": s.op_id}) + "\n")


# ---------------------------------------------------------------------------
# shape-derived work counts (computed, not measured)
# ---------------------------------------------------------------------------

def _size(shape) -> int:
    return int(np.prod(shape, dtype=np.int64))


def kernel_work(attrs: dict) -> tuple[float, float]:
    """(flop, bytes) of one kernel call from its float32 tensor shapes.

    A multiply-add counts as two flops.  Bytes are every input read once and
    every output written once; reshape and flatten return views and move
    nothing.
    """
    kind, ins, outs, opts = attrs["kind"], attrs["in"], attrs["out"], attrs["opts"]
    out = _size(outs[0])
    if kind is BuiltinOp.CONV_2D:
        kh, kw, ci, _ = ins[1]
        flop = 2 * out * kh * kw * ci
    elif kind is BuiltinOp.DEPTHWISE_CONV_2D:
        kh, kw, _ = ins[1]
        flop = 2 * out * kh * kw
    elif kind is BuiltinOp.DENSE:
        flop = 2 * out * ins[1][0]
    elif kind is BuiltinOp.MAX_POOL_2D:
        flop = out * (opts.filter_h * opts.filter_w - 1)
    elif kind is BuiltinOp.AVG_POOL_2D:
        flop = out * opts.filter_h * opts.filter_w
    elif kind is BuiltinOp.SOFTMAX:
        flop = 5 * out  # max, subtract, exp, sum, divide
    elif kind is BuiltinOp.RELU6:
        flop = 2 * out
    elif kind in (BuiltinOp.RELU, BuiltinOp.ADD):
        flop = out
    else:
        flop = 0
    if kind in (BuiltinOp.RESHAPE, BuiltinOp.FLATTEN):
        moved = 0
    else:
        moved = 4 * (sum(_size(s) for s in ins) + sum(_size(s) for s in outs))
    if kind in (BuiltinOp.CONV_2D, BuiltinOp.DEPTHWISE_CONV_2D, BuiltinOp.DENSE) \
            and len(ins) == 3:
        flop += out  # bias add
    return float(flop), float(moved)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over every traced span.

    Times are inclusive except ``interpreter.self_ms``, which is the run
    spans' duration minus that of their direct children (kernel and
    option-decode calls).  A metric whose span never occurred is left out.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, float] = {}

    def total_ms(name: str) -> float:
        return sum(s.ms for s in by_name[name])

    for kind in KERNEL_KINDS:
        name = f"kernels.{kind}"
        if name not in by_name:
            continue
        flop = moved = 0.0
        for s in by_name[name]:
            if s.attrs is None:
                continue  # the kernel raised; no output shapes to count
            f, b = kernel_work(s.attrs)
            flop += f
            moved += b
        m[f"{name}.ms"] = total_ms(name)
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.mflop"] = flop / 1e6
        m[f"{name}.mbytes"] = moved / 1e6

    if "interpreter.run" in by_name:
        runs = [s for s in by_name["interpreter.run"] if s.attrs]
        child_ms = kernel_ms = 0.0
        for s in spans:
            if s.parent >= 0 and spans[s.parent].name == "interpreter.run":
                child_ms += s.ms
                if s.name.startswith("kernels."):
                    kernel_ms += s.ms
        run_ms = total_ms("interpreter.run")
        ops = sum(s.attrs["ops"] for s in runs)
        self_ms = run_ms - child_ms
        m["interpreter.run.ms"] = run_ms
        m["interpreter.self_ms"] = self_ms
        if ops:
            m["interpreter.self_us_per_op"] = self_ms * 1000.0 / ops
        if run_ms > 0:
            m["interpreter.kernel_share"] = kernel_ms / run_ms
        m["interpreter.decoy_ops"] = sum(s.attrs["decoys"] for s in runs)
        if runs:
            m["interpreter.peak_live_bytes"] = max(s.attrs["peak_live_bytes"]
                                                   for s in runs)
    if "interpreter.decode_options" in by_name:
        m["interpreter.decode_options.ms"] = total_ms("interpreter.decode_options")
        m["interpreter.decode_options.calls"] = len(by_name["interpreter.decode_options"])

    for name in ("model_format.serialize_model", "model_format.parse_model",
                 "model_format.validate", "bundle.serialize_bundle",
                 "bundle.load_bundle", "similarity.to_labeled_graph",
                 "similarity.propagation_kernel", "extractor.parse_in_buffer",
                 "extractor.convert") \
            + tuple(f"obfuscator.{fn}" for fn in OBFUSCATOR_FNS):
        if name in by_name:
            m[f"{name}.ms"] = total_ms(name)

    if "obfuscator.obfuscate" in by_name:
        for key, metric in (("shortcuts", "obfuscator.shortcuts_achieved_ratio"),
                            ("layers", "obfuscator.extra_layers_achieved_ratio")):
            done = [s.attrs[key] for s in by_name["obfuscator.obfuscate"] if s.attrs]
            got = sum(d[0] for d in done)
            asked = sum(d[1] for d in done)
            if asked:
                m[metric] = got / asked
    if "similarity.to_labeled_graph" in by_name:
        m["similarity.nodes"] = sum(s.attrs["nodes"]
                                    for s in by_name["similarity.to_labeled_graph"]
                                    if s.attrs)
    return m
