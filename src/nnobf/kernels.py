"""Builtin kernel implementations, exact float32 with a fixed summation order.

Every reduction accumulates in row-major tap order with the channel loop
innermost: convolutions sum over (ky, kx, cin), dense layers over the input
feature index, pools over (wy, wx).  Each partial product is rounded to
float32 before the add, so results are bit-reproducible and match a naive
scalar loop that follows the same order.  Bias is added after the taps,
fused activation last.

Dense has one blocked path that keeps this order at every batch.  It sums
into a transposed ``(out, batch)`` accumulator, ``r`` input features over
``ft`` output columns at a time, in an ``(r + 1, ft, batch)`` float32 block
(batch innermost): row 0 is the accumulator tile, rows 1..r the products,
and ``np.add.reduce`` over the leading axis adds them strictly in row order,
accumulator first.  A block takes up to 16 KiB per batch row, 512 KiB in
all; where three feature rows over every column do not fit, 16-row blocks
take column tiles.  A batch under 8 iterates the product over columns; one
of 43 or more (a third of the 128-element ufunc buffer below) runs under
that buffer, smaller ones under NumPy's default, as a small buffer made
batch-1 Dense up to 2.3 times slower.  Fewer than three rows, and a single
output element, which NumPy reduces pairwise, keep the per-feature loop
into the same accumulator.  The output is its transpose.  No kernel calls
BLAS: it reorders the sums.

Every convolution, Conv2D or DepthwiseConv2D at any stride, takes one
channel-major path.  It stages ``b`` images image-minor in a zeroed
``(cin, hp, wp, b)`` buffer: stride-1 position ``(i, y, x)`` sits at
``(y * wp + x) * b + i`` and tap ``(ky, kx)`` reads the same image
``(ky * wp + kx) * b`` further on.  In (ky, kx, cin) order, weight column
times shifted channel is summed into a zeroed, contiguous ``(cout,
positions)`` accumulator, ``rc`` (ky, kx, cin) rows at a time as in Dense.
A block is whole ky rows, else a run of kx taps in one ky row, else a run of
channels in one tap; its products are written through one view and reduced
in one call, and a one-row block adds its product to the accumulator.  Every
stride-1 position is summed, and a strided convolution keeps every ``sh``-th
row and ``sw``-th column: each kept element has the products and order it
would have alone.  One output element per image keeps ``rc = 1``, as Dense
does for one output element.  An empty output, or one with no products to
sum, is zeros.

NumPy 2.4 runs a broadcast product through iterator buffers when its rows
are under a third of the ufunc buffer (8,192 elements by default): 1-3 ns
and 8 bytes per element, against 0.2-0.4 ns unbuffered.  So convolutions run
with a 128-element buffer (``np.setbufsize``, restored on exit).  A block
takes as many rows of a full chunk as fit 512 KiB with the accumulator's
copy, and a short last chunk keeps that count, so each fixture convolution
takes one to three steps at batch 1.  At batch 256 a full chunk's rows are
322-447 KiB, so the same bound leaves one row a step.  Every convolution
block and Dense (tile, block) step runs on views bound once per geometry
(see ``_planned``), so scratch is held between calls: every fixture's
batch-1 run peaks under 25 KiB, while plans hold 2.0 MiB over all five at
batch 1 and 15.8 MiB at batch 256 (``tools/op_peaks.py``).

Kernels never consult declared tensor shapes; everything is derived from the
actual input arrays.  The leading axis is treated as batch throughout.  A
shape check formats its message only when it fails, and a convolution's
geometry is memoized by shapes, strides, padding and chunk bytes.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import OrderedDict

import numpy as np

from .errors import ShapeMismatch, UnsupportedDtype
from .model_format import (
    Activation,
    BuiltinOp,
    ConcatOptions,
    ConvOptions,
    DenseOptions,
    Padding,
    PoolOptions,
)

_ZERO = np.float32(0.0)
_SIX = np.float32(6.0)
# Blocked Dense path's block bytes per batch row, at most _CONV_CHUNK_BYTES.
_DENSE_BLOCK_BYTES = 16 * 1024
# Accumulator bytes per chunk of the convolution path, and block bytes with the
# accumulator's copy; its ufunc buffer in elements (see the docstring).
_CONV_CHUNK_BYTES = 512 * 1024
_TAP_BUFSIZE = 128
# Kernel plans by geometry, least recently used first, and their bytes.
_PLAN_CACHE_BYTES = 32 * 1024 * 1024
_plans: OrderedDict[tuple, tuple | None] = OrderedDict()
_plans_held = 0
_plans_lock = threading.Lock()


def _require(cond: bool, msg: str, *args) -> None:
    if not cond:
        raise ShapeMismatch(msg.format(*args))


def _require_f32(*arrays: np.ndarray) -> None:
    for a in arrays:
        if a.dtype != np.float32:
            raise UnsupportedDtype(f"kernel requires float32, got {a.dtype}")


def _bias_activation(acc: np.ndarray, bias: np.ndarray | None,
                     act: Activation, name: str) -> np.ndarray:
    """Bias over the last axis, then the fused activation, written into
    ``acc``, which the kernel owns."""
    if bias is not None:
        _require_f32(bias)
        co = acc.shape[-1]
        _require(bias.shape == (co,), "{} bias shape {} != ({},)", name, bias.shape, co)
        acc += bias
    if act is Activation.RELU:
        np.maximum(acc, _ZERO, out=acc)
    elif act is Activation.RELU6:
        np.maximum(acc, _ZERO, out=acc)
        np.minimum(acc, _SIX, out=acc)
    return acc


def _out_extent(size: int, k: int, stride: int, padding: Padding) -> int:
    if padding is Padding.VALID:
        _require(size >= k, "window {} larger than input extent {}", k, size)
        return (size - k) // stride + 1
    return (size - 1) // stride + 1


def _planned(key: tuple, build, w: np.ndarray, xs: np.ndarray, dst: np.ndarray) -> None:
    """Run the plan for ``key``, ``build()`` if none is cached: copy ``w`` and
    ``xs`` in, zero the accumulator, run the steps under the plan's ufunc
    buffer (0: leave it) and iteration order, copy the kept sums to
    ``dst``.  A plan ``(bytes, weights, input, acc, steps, kept, order,
    bufsize)`` holds no caller array; a step multiplies two views into
    ``body``, then sums ``blk`` (``tile`` of ``acc`` in row 0, then ``body``)
    into ``tile``, or adds ``body`` to it if ``blk`` is None.  The plan is out
    of the cache while it runs, so no two calls share scratch; the cache keeps
    ``_PLAN_CACHE_BYTES``, least recently used out first, and a larger plan
    serves one call."""
    global _plans_held
    with _plans_lock:  # None keeps its place: reinserting would resize the dict
        plan = _plans.get(key)
        if plan is not None:
            _plans[key] = None
            _plans.move_to_end(key)
            _plans_held -= plan[0]
    plan = plan or build()
    _, wbuf, xin, acc, steps, kept, order, bufsize = plan
    wbuf[...] = w
    xin[...] = xs
    acc.fill(0.0)
    bufsize = np.setbufsize(bufsize) if bufsize else 0
    try:
        for wv, xv, body, blk, tile in steps:
            np.multiply(wv, xv, out=body, order=order)
            if blk is None:
                np.add(tile, body, out=tile)
            else:
                blk[0] = tile
                np.add.reduce(blk, axis=0, out=tile)
    finally:
        if bufsize:
            np.setbufsize(bufsize)
    dst[...] = kept
    if plan[0] > _PLAN_CACHE_BYTES:
        return
    with _plans_lock:  # replacing another call's plan of the same geometry
        _plans_held += plan[0] - (_plans.get(key) or (0,))[0]
        _plans[key] = plan
        while _plans_held > _PLAN_CACHE_BYTES:
            _plans_held -= (_plans.popitem(last=False)[1] or (0,))[0]


def _conv(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
          opts: ConvOptions, name: str) -> np.ndarray:
    """Conv2D (``w`` of rank 4) or DepthwiseConv2D (rank 3) past rank checks,
    ``nb`` images per chunk, each on the plan of its geometry."""
    n, ci, wci, co = x.shape[0], x.shape[3], w.shape[2], w.shape[-1]
    _require(wci == ci, "{} channels: input {} vs weight {}", name, ci, wci)
    sh, sw, pad = opts.stride_h, opts.stride_w, opts.padding
    oh, ow, nb, hh, ww, rc, build = _conv_geometry(x.shape, w.shape, sh, sw, pad,
                                                   _CONV_CHUNK_BYTES)
    if not nb:  # no output, or no products to sum
        return _bias_activation(np.zeros((n, oh, ow, co), np.float32), bias,
                                opts.activation, name)
    out = np.empty((n, oh, ow, co), np.float32)
    for b0 in range(0, n, nb):
        b = min(nb, n - b0)
        _planned((b, x.shape[1:], w.shape, sh, sw, pad, rc), functools.partial(build, b), w,
                 x[b0:b0 + b, :hh, :ww].transpose(3, 1, 2, 0), out[b0:b0 + b])
    return _bias_activation(out, bias, opts.activation, name)


@functools.lru_cache(maxsize=256)
def _conv_geometry(xshape: tuple, wshape: tuple, sh: int, sw: int, padding: Padding,
                   chunk_bytes: int) -> tuple:
    """``(oh, ow, nb, hh, ww, rc, build)``: ``_conv``'s geometry, with ``nb``
    0 if there is nothing to sum, and ``build(b)`` the plan of ``b`` images.
    Errors are never cached: a window larger than the input raises each call."""
    (n, h, wd, ci), (kh, kw), co = xshape, wshape[:2], wshape[-1]
    oh, ow = _out_extent(h, kh, sh, padding), _out_extent(wd, kw, sw, padding)
    if not n * oh * ow * math.prod(wshape):
        return oh, ow, 0, 0, 0, 0, None
    hp, wp = (oh - 1) * sh + kh, (ow - 1) * sw + kw  # the rows and columns read
    pt, pl = ((kh - 1) // 2, (kw - 1) // 2) if padding is Padding.SAME else (0, 0)
    hh, ww = min(h, hp - pt), min(wd, wp - pl)  # input rows and columns read
    span, sites = hp * wp, (oh - 1) * sh * wp + (ow - 1) * sw + 1  # to the last output
    nb = min(n, max(1, chunk_bytes // (4 * co * span)))
    cb, row = 1 if len(wshape) == 3 else ci, co * sites * nb  # floats per product row
    # one output element per image: a 1-image chunk is a lone row, summed pairwise
    rc = max(1, min(kh * kw * cb, chunk_bytes // (4 * row) - 1)) if co * sites > 1 else 1

    def build(b: int) -> tuple:
        """The plan of a chunk of ``b`` images: a step per block of ``rc``
        (ky, kx, c) rows in that order, on a stage whose border stays zero.  A
        block is whole ky rows, else kx taps of one ky row, else channels of
        one tap; a one-row block adds its product to the accumulator."""
        size = sites * b
        stage = np.zeros((ci, hp, wp, b), np.float32)
        acc = np.empty((co, size), np.float32)
        prod = np.empty((rc + (rc > 1)) * co * size, np.float32)
        wbuf = np.empty(wshape, np.float32)
        # Views of the weights and of the stage at every tap: wv[ky, kx, c] is (co, 1)
        # and xv[ky, kx, c] (1, size); a depthwise tap is one row, (co, 1) by (co, size).
        rows, wv = ((co, wbuf[:, :, None, :, None]) if len(wshape) == 3
                    else (1, wbuf[..., None]))
        xv = np.ndarray((kh, kw, cb, rows, size), np.float32, stage, 0,
                        (4 * wp * b, 4 * b, stage.strides[0], stage.strides[0], 4))
        g, t, c = ((rc // (kw * cb), kw, cb) if rc >= kw * cb else
                   (1, rc // cb, cb) if rc >= cb else (1, 1, rc))
        p, steps = prod.reshape(-1, co, size), []
        for ky, kx, c0 in itertools.product(range(0, kh, g), range(0, kw, t), range(0, cb, c)):
            at = np.s_[ky:ky + g, kx:kx + t, c0:c0 + c]
            r = wv[at].size // co  # the block's rows, written through one view
            body = p[r > 1:r + (r > 1)].reshape(*wv[at].shape[:3], co, size)
            steps.append((wv[at], xv[at], body, *((p[:r + 1], acc) if r > 1
                                                  else (None, acc.reshape(body.shape)))))
        kept = np.ndarray((b, oh, ow, co), np.float32, acc, 0,
                          (4, 4 * sh * wp * b, 4 * sw * b, 4 * size))
        return (sum(a.nbytes for a in (stage, acc, prod, wbuf)), wbuf,
                stage[:, pt:pt + hh, pl:pl + ww], acc, steps, kept, "K", _TAP_BUFSIZE)
    return oh, ow, nb, hh, ww, rc, build


def conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
           opts: ConvOptions) -> np.ndarray:
    _require_f32(x, w)
    _require(x.ndim == 4, "Conv2D input must be NHWC, got rank {}", x.ndim)
    _require(w.ndim == 4, "Conv2D weight must be (kh, kw, cin, cout), got rank {}", w.ndim)
    return _conv(x, w, bias, opts, "Conv2D")


def depthwise_conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                     opts: ConvOptions) -> np.ndarray:
    _require_f32(x, w)
    _require(x.ndim == 4, "DepthwiseConv2D input must be NHWC, got rank {}", x.ndim)
    _require(w.ndim == 3, "DepthwiseConv2D weight must be (kh, kw, c), got rank {}", w.ndim)
    return _conv(x, w, bias, opts, "DepthwiseConv2D")


def _dense_block_rows(n: int, fout: int) -> tuple[int, int]:
    """``(ft, r)``: output columns per tile and input features per block of
    the blocked Dense path, or ``(0, 0)`` for the row loop (see the module
    docstring).  Batch 1 tiles no columns: a one-column tile would be a lone
    output element.
    """
    if n * fout < 2:
        return 0, 0
    cap = min(_DENSE_BLOCK_BYTES * n, _CONV_CHUNK_BYTES) // (4 * n)
    ft = fout if cap >= 4 * fout or n == 1 else max(cap // 16, 1)
    r = cap // ft - 1
    return (ft, r) if r >= 3 else (0, 0)


def _dense_plan(n: int, fin: int, fout: int, ft: int, rows: int) -> tuple:
    """The plan of the blocked Dense path: a step per column tile and block
    of ``rows`` features, in order; rows under 8 floats loop over columns."""
    wbuf = np.empty((fin, fout), np.float32)
    xT = np.empty((fin, n), np.float32)
    accT = np.empty((fout, n), np.float32)
    buf = np.empty((rows + 1, ft, n), np.float32)
    steps = []
    for o0, i0 in itertools.product(range(0, fout, ft), range(0, fin, rows)):
        tile, i1 = accT[o0:o0 + ft], min(i0 + rows, fin)
        blk = buf[:i1 - i0 + 1, :len(tile)]
        steps.append((wbuf[i0:i1, None, o0:o0 + ft], xT[i0:i1, :, None],
                      blk[1:].transpose(0, 2, 1), blk, tile))
    return (sum(a.nbytes for a in (wbuf, xT, accT, buf)), wbuf, xT, accT, steps, accT,
            "C" if n < 8 else "K", _TAP_BUFSIZE if 3 * n >= _TAP_BUFSIZE else 0)


def dense(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
          opts: DenseOptions) -> np.ndarray:
    _require_f32(x, w)
    _require(x.ndim == 2, "Dense input must be (batch, features), got rank {}", x.ndim)
    _require(w.ndim == 2, "Dense weight must be (in, out), got rank {}", w.ndim)
    n, fin = x.shape
    win, fout = w.shape
    _require(win == fin, "Dense features: input {} vs weight {}", fin, win)
    ft, rows = _dense_block_rows(n, fout)
    rows = min(rows, fin)
    if rows:
        accT = np.empty((fout, n), np.float32)
        _planned((n, fin, fout, ft, rows), lambda: _dense_plan(n, fin, fout, ft, rows),
                 w, x.T, accT)
    else:
        accT = np.zeros((fout, n), np.float32)
        for i in range(fin):
            accT += w[i, :, None] * x[:, i]
    return _bias_activation(accT.T, bias, opts.activation, "Dense")


def _windows(x: np.ndarray, opts: PoolOptions, name: str, fill: float):
    """The window taps of a pool over ``x``, each ``(n, oh, ow, c)``, in
    (wy, wx) order.  SAME borders ``x`` with ``fill``, zero-offset: top/left
    pads are floor((k-1)/2)."""
    _require_f32(x)
    _require(x.ndim == 4, "{} input must be NHWC, got rank {}", name, x.ndim)
    n, h, w, c = x.shape
    fh, fw, sh, sw = opts.filter_h, opts.filter_w, opts.stride_h, opts.stride_w
    oh = _out_extent(h, fh, sh, opts.padding)
    ow = _out_extent(w, fw, sw, opts.padding)
    if opts.padding is Padding.SAME:
        pt, pl = (fh - 1) // 2, (fw - 1) // 2
        pb = max(0, (oh - 1) * sh + fh - pt - h)
        pr = max(0, (ow - 1) * sw + fw - pl - w)
        xp = np.full((n, pt + h + pb, pl + w + pr, c), fill, np.float32)
        xp[:, pt:pt + h, pl:pl + w] = x
        x = xp
    return (x[:, wy:wy + (oh - 1) * sh + 1:sh, wx:wx + (ow - 1) * sw + 1:sw]
            for wy in range(fh) for wx in range(fw))


def max_pool2d(x: np.ndarray, opts: PoolOptions) -> np.ndarray:
    taps = _windows(x, opts, "MaxPool2D", -np.inf)
    out = next(taps).copy()
    for tap in taps:
        np.maximum(out, tap, out=out)
    return out


def avg_pool2d(x: np.ndarray, opts: PoolOptions) -> np.ndarray:
    taps = _windows(x, opts, "AvgPool2D", 0.0)
    acc = next(taps) + _ZERO  # a zeroed accumulator plus the first tap
    for tap in taps:
        acc += tap
    if opts.padding is Padding.VALID:  # every window lies inside the input
        return acc / np.float32(opts.filter_h * opts.filter_w)
    ones = np.ones((1, *x.shape[1:3], 1), np.float32)
    return acc / sum(_windows(ones, opts, "AvgPool2D", 0.0))


def relu(x: np.ndarray) -> np.ndarray:
    _require_f32(x)
    return np.maximum(x, _ZERO)


def relu6(x: np.ndarray) -> np.ndarray:
    _require_f32(x)
    return np.minimum(np.maximum(x, _ZERO), _SIX)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require_f32(a, b)
    _require(a.shape == b.shape, "Add shapes differ: {} vs {}", a.shape, b.shape)
    return a + b


def concat(parts: list[np.ndarray], opts: ConcatOptions) -> np.ndarray:
    _require(len(parts) >= 1, "Concat needs at least one input")
    _require_f32(*parts)
    rank = parts[0].ndim
    axis = opts.axis if opts.axis >= 0 else opts.axis + rank
    _require(0 <= axis < rank, "Concat axis {} invalid for rank {}", opts.axis, rank)
    base = parts[0].shape
    for p in parts[1:]:
        _require(p.ndim == rank, "Concat ranks differ")
        for d in range(rank):
            if d != axis:
                _require(p.shape[d] == base[d],
                         "Concat shapes differ off-axis: {} vs {}", p.shape, base)
    return np.concatenate(parts, axis=axis)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: max-shifted exp, ascending-index sum."""
    _require_f32(x)
    _require(x.ndim >= 1 and x.shape[-1] >= 1, "Softmax needs a non-empty last axis")
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.add.accumulate(e, axis=-1)[..., -1:]


def reshape(x: np.ndarray, shape_spec: np.ndarray) -> np.ndarray:
    if shape_spec.dtype != np.int32:
        raise UnsupportedDtype(f"Reshape shape input must be int32, got {shape_spec.dtype}")
    _require(shape_spec.ndim == 1, "Reshape shape input must be rank 1")
    dims = [int(d) for d in shape_spec]
    _require(dims.count(-1) <= 1, "Reshape allows at most one -1 wildcard")
    _require(all(d >= 1 or d == -1 for d in dims), "Reshape dims invalid: {}", dims)
    total = x.size
    if -1 in dims:
        known = math.prod(d for d in dims if d != -1)
        _require(known > 0 and total % known == 0,
                 "Reshape cannot infer -1: {} elements into {}", total, dims)
        dims[dims.index(-1)] = total // known
    _require(math.prod(dims) == total,
             "Reshape size mismatch: {} elements into {}", total, dims)
    return x.reshape(dims)


def flatten(x: np.ndarray) -> np.ndarray:
    _require(x.ndim >= 2, "Flatten input must have rank >= 2, got {}", x.ndim)
    return x.reshape(x.shape[0], -1)


def _weighted(kernel):
    """Adapt an ``(x, w, bias | None, opts)`` kernel to ``(inputs, opts)``."""
    return lambda a, o: kernel(a[0], a[1], a[2] if len(a) == 3 else None, o)


# kind -> (min inputs, max inputs, call(inputs, options) -> output array)
_KERNELS = {
    BuiltinOp.CONV_2D: (2, 3, _weighted(conv2d)),
    BuiltinOp.DEPTHWISE_CONV_2D: (2, 3, _weighted(depthwise_conv2d)),
    BuiltinOp.DENSE: (2, 3, _weighted(dense)),
    BuiltinOp.RELU: (1, 1, lambda a, o: relu(a[0])),
    BuiltinOp.RELU6: (1, 1, lambda a, o: relu6(a[0])),
    BuiltinOp.MAX_POOL_2D: (1, 1, lambda a, o: max_pool2d(a[0], o)),
    BuiltinOp.AVG_POOL_2D: (1, 1, lambda a, o: avg_pool2d(a[0], o)),
    BuiltinOp.ADD: (2, 2, lambda a, o: add(a[0], a[1])),
    BuiltinOp.CONCAT: (1, math.inf, lambda a, o: concat(list(a), o)),
    BuiltinOp.SOFTMAX: (1, 1, lambda a, o: softmax(a[0])),
    BuiltinOp.RESHAPE: (2, 2, lambda a, o: reshape(a[0], a[1])),
    BuiltinOp.FLATTEN: (1, 1, lambda a, o: flatten(a[0])),
}


def execute_builtin(kind: BuiltinOp, inputs: list[np.ndarray],
                    options) -> list[np.ndarray]:
    """Dispatch one builtin kernel; returns its output list."""
    entry = _KERNELS.get(kind)
    if entry is None:
        raise ShapeMismatch(f"unknown builtin kernel {kind!r}")
    lo, hi, call = entry
    if not lo <= len(inputs) <= hi:
        raise ShapeMismatch(
            f"{kind.name} expects {lo}..{hi} inputs, got {len(inputs)}")
    return [call(inputs, options)]
