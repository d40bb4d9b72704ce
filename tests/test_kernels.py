import gc
import re
import sys
import threading
import weakref
from collections import OrderedDict

import numpy as np
import pytest

import naive_kernels as ref
from nnobf import interpreter, kernels
from nnobf.errors import ShapeMismatch, UnsupportedDtype
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.kernels import (
    add,
    avg_pool2d,
    concat,
    conv2d,
    dense,
    depthwise_conv2d,
    execute_builtin,
    flatten,
    max_pool2d,
    relu,
    relu6,
    reshape,
    softmax,
)
from nnobf.model_format import (
    Activation,
    BuiltinOp,
    ConcatOptions,
    ConvOptions,
    DenseOptions,
    Padding,
    PoolOptions,
    decode_options,
    materialize_constants,
)
from nnobf.obfuscator import ObfuscationConfig, obfuscate

F = np.float32


def runi(seed):
    return np.random.default_rng(seed)


def rand(rng, shape):
    return rng.random(shape, dtype=F) - F(0.5)


# -- pinned examples ------------------------------------------------------------

def test_relu_example():
    out = execute_builtin(BuiltinOp.RELU, [np.array([-1, 0, 2], F)], None)
    assert np.array_equal(out[0], np.array([0, 0, 2], F))


def test_softmax_symmetry_example():
    out = softmax(np.array([[0.0, 0.0]], F))
    assert np.array_equal(out, np.array([[0.5, 0.5]], F))


def test_conv_all_ones_example():
    x = np.ones((1, 3, 3, 1), F)
    w = np.ones((2, 2, 1, 1), F)
    b = np.zeros((1,), F)
    opts = ConvOptions(1, 1, Padding.VALID, Activation.NONE)
    got = conv2d(x, w, b, opts)
    assert got.shape == (1, 2, 2, 1)
    assert np.array_equal(got, np.full((1, 2, 2, 1), 4.0, F))
    assert np.array_equal(got, ref.conv2d_ref(x, w, b, opts))


def test_dense_identity_example():
    out = dense(np.array([[1.0, 2.0]], F), np.eye(2, dtype=F),
                np.zeros(2, F), DenseOptions(Activation.NONE))
    assert np.array_equal(out, np.array([[1.0, 2.0]], F))


# -- oracle agreement: >= 100 seeded random shapes per kernel --------------------

def conv_cases():
    rng = runi(101)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        sh, sw = (int(v) for v in rng.integers(1, 4, 2))
        pad = Padding.SAME if rng.integers(2) else Padding.VALID
        act = Activation(int(rng.integers(3)))
        n = int(rng.integers(1, 3))
        h = int(rng.integers(k, 8))
        w = int(rng.integers(k, 8))
        ci = int(rng.integers(1, 4))
        co = int(rng.integers(1, 5))
        yield (rand(rng, (n, h, w, ci)), rand(rng, (k, k, ci, co)),
               rand(rng, (co,)) if rng.integers(2) else None,
               ConvOptions(sh, sw, pad, act))


def test_conv2d_matches_oracle_exactly():
    for x, w, b, opts in conv_cases():
        assert np.array_equal(conv2d(x, w, b, opts),
                              ref.conv2d_ref(x, w, b, opts))


def test_depthwise_matches_oracle_exactly():
    rng = runi(102)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        sh, sw = (int(v) for v in rng.integers(1, 4, 2))
        pad = Padding.SAME if rng.integers(2) else Padding.VALID
        act = Activation(int(rng.integers(3)))
        n = int(rng.integers(1, 3))
        h = int(rng.integers(k, 8))
        w = int(rng.integers(k, 8))
        c = int(rng.integers(1, 5))
        x = rand(rng, (n, h, w, c))
        wt = rand(rng, (k, k, c))
        b = rand(rng, (c,)) if rng.integers(2) else None
        opts = ConvOptions(sh, sw, pad, act)
        assert np.array_equal(depthwise_conv2d(x, wt, b, opts),
                              ref.depthwise_conv2d_ref(x, wt, b, opts))


def test_dense_matches_oracle_exactly():
    rng = runi(103)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        fin = int(rng.integers(1, 24))
        fout = int(rng.integers(1, 9))
        x = rand(rng, (n, fin))
        w = rand(rng, (fin, fout))
        b = rand(rng, (fout,)) if rng.integers(2) else None
        opts = DenseOptions(Activation(int(rng.integers(3))))
        assert np.array_equal(dense(x, w, b, opts), ref.dense_ref(x, w, b, opts))


# -- blocked Dense path ---------------------------------------------------------

# (batch, fout) pairs that take the blocked path, whose (r + 1, ft, batch)
# block takes up to 16 KiB per batch row, capped at 512 KiB: batch 1 and 7
# iterate the product over columns, 37 and 42 run under NumPy's default ufunc
# buffer, 43 and 256 under the 128-element one
BLOCKED_DENSE = [(1, 2), (1, 10), (1, 32), (1, 256), (7, 1), (7, 5), (7, 97),
                 (37, 97), (42, 97), (43, 97), (256, 1), (256, 2)]


def dense_fins(rows):
    """One feature, one exact block, a partial last block, several blocks."""
    return sorted({1, rows, rows + 1, 3 * rows + 2})


def dense_inputs(rng, n, fin, fout):
    x = rand(rng, (n, fin))
    w = rand(rng, (fin, fout))
    # a row of -0.0 features meets a column of positive weights, and a column
    # of -0.0 weights a row of positive features: all-(-0.0) products, which
    # only an accumulator that starts at +0.0 sums to +0.0
    x[-1, :] = np.abs(x[-1, :])
    x[0, :] = -0.0
    w[:, 0] = np.abs(w[:, 0])
    w[:, -1] = -0.0
    return x, w


def assert_dense_matches_oracle(x, w, b):
    """Every activation of ``dense(x, w, b)`` equals the oracle's bytes.  The
    oracle applies the activation to each finished sum, so one call without
    one gives every activation's expected output."""
    plain = ref.dense_ref(x, w, b, DenseOptions(Activation.NONE))
    for act in Activation:
        want = np.array([ref._act(v, act) for v in plain.flat], F).reshape(plain.shape)
        got = dense(x, w, b, DenseOptions(act))
        assert got.dtype == F and got.tobytes() == want.tobytes(), (x.shape, w.shape, act)


def fixture_dense_shapes():
    """(fin, fout) of every fixture's Dense layers."""
    shapes = set()
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 0)
        for op in g.operators:
            if g.opcodes[op.opcode_index].builtin_code == BuiltinOp.DENSE:
                shapes.add(g.tensors[op.inputs[1]].shape)
    return sorted(shapes)


@pytest.mark.parametrize("n,fout", BLOCKED_DENSE)
def test_dense_blocked_path_matches_oracle_bytes(n, fout):
    ft, rows = kernels._dense_block_rows(n, fout)
    assert ft == fout and rows >= 3
    rng = runi(106)
    for fin in dense_fins(rows):
        x, w = dense_inputs(rng, n, fin, fout)
        for b in (None, rand(rng, (fout,))):
            assert_dense_matches_oracle(x, w, b)


@pytest.mark.parametrize("n,fin,fout", [(2, 17, 1025), (9, 17, 1100)])
def test_dense_column_tiles_match_oracle_bytes(n, fin, fout):
    # 16-row blocks over 256-column tiles: two blocks, a partial last tile,
    # and at batch 2 a last tile of one column
    assert kernels._dense_block_rows(n, fout) == (256, 15)
    rng = runi(109)
    x, w = dense_inputs(rng, n, fin, fout)
    for b in (None, rand(rng, (fout,))):
        assert_dense_matches_oracle(x, w, b)


@pytest.mark.parametrize("n,fin,fout", [(1, 1, 1), (1, 17, 1), (1, 200, 1),
                                        (1, 9, 1100), (32769, 1, 2)])
def test_dense_row_loop_matches_oracle_bytes(n, fin, fout):
    assert kernels._dense_block_rows(n, fout) == (0, 0)
    rng = runi(107)
    x, w = dense_inputs(rng, n, fin, fout)
    for b in (None, rand(rng, (fout,))):
        assert_dense_matches_oracle(x, w, b)


def test_dense_path_choice_by_shape():
    # every fixture's Dense layer is blocked at batch 1, in today's blocks of
    # (16 KiB / 4 / fout) - 1 rows over every column, and at batch 256
    for fin, fout in fixture_dense_shapes():
        assert kernels._dense_block_rows(1, fout) == (fout, 4096 // fout - 1), fout
        ft, rows = kernels._dense_block_rows(256, fout)
        assert 1 <= ft <= fout and rows >= 3, fout
    for n, fout in BLOCKED_DENSE:
        assert kernels._dense_block_rows(n, fout)[1] >= 3
    assert kernels._dense_block_rows(256, 256) == (32, 15)  # mlp's 128 -> 256
    # a single output element keeps the row loop, so batch 1 tiles no columns;
    # past 32,768 rows not even a 4-row block of one column fits 512 KiB
    assert kernels._dense_block_rows(1, 1) == (0, 0)
    assert kernels._dense_block_rows(1, 1025) == (0, 0)
    assert kernels._dense_block_rows(32769, 2) == (0, 0)


def test_dense_batch_256_equals_stacked_batch_1_rows():
    rng = runi(108)
    for fin, fout in fixture_dense_shapes():
        x, w = dense_inputs(rng, 256, fin, fout)
        for b in (None, rand(rng, (fout,))):
            for act in Activation:
                opts = DenseOptions(act)
                rows = b"".join(dense(x[k:k + 1], w, b, opts).tobytes()
                                for k in range(256))
                assert dense(x, w, b, opts).tobytes() == rows, (fin, fout, act)


def test_dense_on_an_empty_batch():
    b = np.array([-1.0, 0.5, 7.0], F)
    for fout in (1, 3, 600):
        got = dense(np.ones((0, 5), F), np.ones((5, fout), F), None,
                    DenseOptions(Activation.RELU))
        assert got.shape == (0, fout) and got.dtype == F
    for act, want in ((Activation.NONE, [-1.0, 0.5, 7.0]),
                      (Activation.RELU, [0.0, 0.5, 7.0]),
                      (Activation.RELU6, [0.0, 0.5, 6.0])):
        got = dense(np.ones((4, 0), F), np.ones((0, 3), F), b, DenseOptions(act))
        assert got.tobytes() == np.tile(np.array(want, F), (4, 1)).tobytes()


def test_dense_restores_numpy_bufsize():
    old = np.setbufsize(4096)
    try:
        dense(np.ones((256, 4), F), np.ones((4, 8), F), None,
              DenseOptions(Activation.NONE))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("shape", [(1,), (1, 1), (2,), (3,), (17,), (1, 2),
                                   (7, 1), (256, 2), (32, 256)])
def test_numpy_outer_axis_reduce_is_sequential(shape):
    # The blocked Dense path relies on np.add.reduce summing a leading axis
    # strictly in order.  This stack sums to 0.0 in order (each 1.0 is lost
    # against 1e8) but not pairwise.  With one output element NumPy reduces
    # the lone axis pairwise, which is why such shapes keep the row loop.
    stack = np.array([1e8] + [1.0] * 15 + [-1e8], F)
    seq = stack[0]
    for v in stack[1:]:
        seq = F(seq + v)
    assert seq == F(0.0) and np.add.reduce(stack) != seq
    buf = np.empty((stack.size, *shape), F)
    buf[...] = stack.reshape(-1, *(1,) * len(shape))
    for got in (np.add.reduce(buf, axis=0),
                np.add.reduce(buf, axis=0, out=np.empty(shape, F))):
        if int(np.prod(shape)) >= 2:
            assert np.all(got == seq)
        else:
            assert np.all(got != seq)


# -- channel-major chunked convolution path ------------------------------------

def chunked_conv_case(rng, depthwise, n, k, pad):
    """Inputs with 5 x 6 output positions; an image stages at most 9 x 10
    positions (k = 5)."""
    h, w = (5, 6) if pad is Padding.SAME else (k + 4, k + 5)
    ci, co = 3, 3
    x = rand(rng, (n, h, w, ci))
    wt = rand(rng, (k, k, ci) if depthwise else (k, k, ci, co))
    # image 0 is all -0.0 and channel 0's weights are positive, so its
    # channel 0 sums only -0.0 products away from a SAME border: +0.0 from
    # a +0.0 start, -0.0 if the sum started at the first product; the last
    # channel's weights are -0.0
    x[0] = -0.0
    wt[..., 0] = np.abs(wt[..., 0])
    wt[..., -1] = -0.0
    return x, wt


def two_image_chunk_bytes(x, wt, pad):
    kh, kw = wt.shape[:2]
    _, h, w, _ = x.shape
    hp, wp = (h + kh - 1, w + kw - 1) if pad is Padding.SAME else (h, w)
    return 2 * 4 * wt.shape[-1] * hp * wp


@pytest.mark.parametrize("pad", [Padding.VALID, Padding.SAME], ids=["valid", "same"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
def test_chunked_conv_matches_oracle_bytes(depthwise, n, k, pad, monkeypatch):
    # batch 7 runs chunks of 2 images: three full ones and a partial last
    # one; batch 1 runs with a one-float chunk, which still holds one image
    kernel, oracle = ((depthwise_conv2d, ref.depthwise_conv2d_ref) if depthwise
                      else (conv2d, ref.conv2d_ref))
    rng = runi(108)
    x, wt = chunked_conv_case(rng, depthwise, n, k, pad)
    monkeypatch.setattr(kernels, "_CONV_CHUNK_BYTES",
                        two_image_chunk_bytes(x, wt, pad) if n > 1 else 4)
    for b in (None, rand(rng, wt.shape[-1:])):
        for act in Activation:
            opts = ConvOptions(1, 1, pad, act)
            got = kernel(x, wt, b, opts)
            assert got.tobytes() == oracle(x, wt, b, opts).tobytes(), (b is None, act)


def fixture_convs():
    """(fixture, batch-1 input shape, weight, options) of every fixture's
    Conv2D and DepthwiseConv2D."""
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 0)
        consts = materialize_constants(g)
        for op in g.operators:
            kind = g.opcodes[op.opcode_index].builtin_code
            if kind in (BuiltinOp.CONV_2D, BuiltinOp.DEPTHWISE_CONV_2D):
                yield (name, g.tensors[op.inputs[0]].shape, consts[op.inputs[1]],
                       decode_options(BuiltinOp(kind), op.options))


FIXTURE_CONVS = list(fixture_convs())


def test_fixture_convs_equal_stacked_batch_1_rows():
    # every fixture shape, at strides 1 and 2, at batch 37 and 256: chunks
    # of several images give each image the bytes it gets alone
    rng = runi(109)
    kinds = set()
    for name, shape, wt, opts in FIXTURE_CONVS:
        kernel = depthwise_conv2d if wt.ndim == 3 else conv2d
        kinds.add(kernel)
        for s in (1, 2):
            o = ConvOptions(s, s, opts.padding, opts.activation)
            for n in (37, 256):
                x = rand(rng, (n, *shape[1:]))
                x[0] = -0.0
                b = rand(rng, wt.shape[-1:])
                rows = b"".join(kernel(x[k:k + 1], wt, b, o).tobytes()
                                for k in range(n))
                assert kernel(x, wt, b, o).tobytes() == rows, (name, shape, s, n)
    assert kinds == {conv2d, depthwise_conv2d}


def conv_blocks():
    """Per cached convolution plan, the (ky rows, kx taps, channels) extent of
    each step's block, in step order."""
    return [[step[0].shape[:3] for step in plan[4]] for plan in kernels._plans.values()
            if plan[4][0][0].ndim == 5]


def block_kind(extent):
    """Which of the four block shapes a ``(ky rows, kx taps, channels)``
    extent is."""
    g, t, c = extent
    return "ky rows" if g > 1 else "kx taps" if t > 1 else "channels" if c > 1 else "one row"


# chunk bytes from 64 B up by a factor of 1.25, fine enough that every case
# below takes one-row steps and blocks of every shape, partial last blocks
# included, at some rung
CHUNK_LADDER = sorted({int(64 * 1.25 ** e) for e in range(44)})


@pytest.mark.parametrize("pad", [Padding.VALID, Padding.SAME], ids=["valid", "same"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_channel_blocks_match_oracle_bytes(n, k, pad, monkeypatch):
    # every (cin, cout) runs at every rung of the chunk ladder, on a plan
    # cache of its own; batch 7 runs chunks of one to seven images.  Bias
    # on/off and the activations cycle over the (cin, cout) combinations, so
    # each case sees all six.
    rng = runi(110)
    h, w = (2, 3) if pad is Padding.SAME else (k + 1, k + 2)
    blocks = []
    variants = [(b, act) for b in (False, True) for act in Activation]
    combos = [(ci, co) for ci in (1, 3, 8) for co in (1, 4, 16)]
    for i, (ci, co) in enumerate(combos):
        x = rand(rng, (n, h, w, ci))
        wt = rand(rng, (k, k, ci, co))
        x[0, :1] = -0.0  # image 0's first row
        if co > 1:  # the last output channel sums only -0.0 products
            wt[..., -1] = -0.0
        with_bias, act = variants[(i + k + n) % len(variants)]
        b = rand(rng, (co,)) if with_bias else None
        opts = ConvOptions(1, 1, pad, act)
        want = ref.conv2d_ref(x, wt, b, opts).tobytes()
        with monkeypatch.context() as m:
            m.setattr(kernels, "_plans", OrderedDict())
            m.setattr(kernels, "_plans_held", 0)
            for chunk in CHUNK_LADDER:
                m.setattr(kernels, "_CONV_CHUNK_BYTES", chunk)
                assert conv2d(x, wt, b, opts).tobytes() == want, (ci, co, chunk)
            blocks += conv_blocks()
    kinds = {block_kind(steps[0]) for steps in blocks}
    partial = {block_kind(steps[0]) for steps in blocks if len(set(steps)) > 1}
    assert kinds == {"one row", "channels"} | ({"kx taps", "ky rows"} if k > 1 else set())
    assert partial == {"channels"} | ({"kx taps", "ky rows"} if k > 2 else set())


@pytest.mark.parametrize("pad", [Padding.VALID, Padding.SAME], ids=["valid", "same"])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
def test_every_block_shape_matches_oracle_bytes(depthwise, n, s, pad, fresh_plans,
                                                monkeypatch):
    # 3 x 3 taps over 3 channels at every rung of the chunk ladder: one-row
    # steps, channel runs (Conv2D only: a depthwise tap is one row), kx runs
    # and whole ky rows, each with a partial last block; batch 7 also runs
    # short last chunks.  The input is >= +0.0 and the last output channel's
    # weights are -0.0, so that channel sums only -0.0 products: +0.0 from
    # the zeroed accumulator, -0.0 had the sum started at its first product.
    kernel, oracle = ((depthwise_conv2d, ref.depthwise_conv2d_ref) if depthwise
                      else (conv2d, ref.conv2d_ref))
    rng = runi(117)
    x = np.abs(rand(rng, (n, 7, 8, 3)))
    wt = rand(rng, (3, 3, 3) if depthwise else (3, 3, 3, 3))
    wt[..., -1] = -0.0
    opts = ConvOptions(s, s, pad, Activation.NONE)
    want = oracle(x, wt, None, opts).tobytes()
    for chunk in CHUNK_LADDER:
        monkeypatch.setattr(kernels, "_CONV_CHUNK_BYTES", chunk)
        assert kernel(x, wt, None, opts).tobytes() == want, chunk
    blocks = conv_blocks()
    kinds = {"one row", "kx taps", "ky rows"} | (set() if depthwise else {"channels"})
    assert {block_kind(steps[0]) for steps in blocks} == kinds
    assert {block_kind(steps[0]) for steps in blocks if len(set(steps)) > 1} == kinds - {
        "one row"}
    assert n == 1 or any(1 < key[0] < n for key in kernels._plans)  # short last chunks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_output_element_sums_in_tap_order(k, fresh_plans):
    # one image, one output channel, a 1 x 1 output: a channel block would
    # reduce one lone axis, which NumPy sums pairwise.  Per tap, seven 1.0
    # products then 1e8 sum to 1e8 + 8 in order but to 1e8 pairwise.
    # The last tap's channel-0 weight is -0.0.
    x = np.ones((1, k, k, 8), F)
    x[..., -1] = 1e8
    wt = np.ones((k, k, 8, 1), F)
    wt[-1, -1, 0] = -0.0
    opts = ConvOptions(1, 1, Padding.VALID, Activation.NONE)
    for xi in (x, -x, np.full_like(x, -0.0)):
        want = ref.conv2d_ref(xi, wt, None, opts)
        assert conv2d(xi, wt, None, opts).tobytes() == want.tobytes()
    assert conv_blocks() == [[(1, 1, 1)] * (k * k * 8)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
def test_single_output_element_sums_across_taps_in_order(depthwise, n, fresh_plans,
                                                         monkeypatch):
    # one output element per image over 4 x 4 taps of one channel, 1.0 but
    # for 1e8 at tap 1: in order the later 1.0s are lost against 1e8,
    # pairwise they are not, so a block across taps, which NumPy would
    # reduce as one lone axis, gives other bytes.  The last tap's weight is
    # -0.0.  Batch 3 runs chunks of 2 images and 1, a lone row again.
    kernel, oracle = ((depthwise_conv2d, ref.depthwise_conv2d_ref) if depthwise
                      else (conv2d, ref.conv2d_ref))
    x = np.ones((n, 4, 4, 1), F)
    x[:, 0, 1] = 1e8
    wt = np.ones((4, 4, 1) if depthwise else (4, 4, 1, 1), F)
    wt[-1, -1] = -0.0
    opts = ConvOptions(1, 1, Padding.VALID, Activation.NONE)
    monkeypatch.setattr(kernels, "_CONV_CHUNK_BYTES", 160)  # 2.5 staged images
    products = np.concatenate([np.zeros(1, F), (x[0] * wt.reshape(4, 4, 1)).ravel()])
    assert np.add.reduce(products) != oracle(x, wt, None, opts)[0].item()
    for xi in (x, -x, np.full_like(x, -0.0)):
        want = oracle(xi, wt, None, opts)
        assert kernel(xi, wt, None, opts).tobytes() == want.tobytes()
    assert conv_blocks() == [[(1, 1, 1)] * 16] * min(n, 2)


def test_conv2d_on_an_empty_batch():
    w = np.ones((3, 3, 2, 4), F)
    for pad, side in ((Padding.SAME, 6), (Padding.VALID, 4)):
        got = conv2d(np.ones((0, 6, 6, 2), F), w, np.ones(4, F),
                     ConvOptions(1, 1, pad, Activation.RELU))
        assert got.shape == (0, side, side, 4) and got.dtype == F
    # no products to sum: a zero-height window, or no input channels
    for x, w in ((np.ones((1, 1, 3, 1), F), np.ones((0, 1, 1, 2), F)),
                 (np.ones((2, 4, 4, 0), F), np.ones((3, 3, 0, 4), F))):
        for s in (1, 2):
            got = conv2d(x, w, None, ConvOptions(s, s, Padding.SAME, Activation.NONE))
            assert got.tobytes() == np.zeros_like(got).tobytes()


def test_chunked_path_restores_numpy_bufsize():
    old = np.setbufsize(4096)
    try:
        conv2d(np.ones((1, 6, 6, 2), F), np.ones((3, 3, 2, 4), F), None,
               ConvOptions(1, 1, Padding.SAME, Activation.NONE))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


# -- kernel plans --------------------------------------------------------------

WEIGHTED = {BuiltinOp.CONV_2D: (conv2d, ref.conv2d_ref),
            BuiltinOp.DEPTHWISE_CONV_2D: (depthwise_conv2d, ref.depthwise_conv2d_ref),
            BuiltinOp.DENSE: (dense, ref.dense_ref)}


def call(kernel, x, weights, opts):
    """``kernel`` on ``x`` with a ``[w]`` or ``[w, bias]`` list."""
    return kernel(x, weights[0], weights[1] if len(weights) > 1 else None, opts)


@pytest.fixture
def fresh_plans(monkeypatch):
    """An empty plan cache for one test; the shared one comes back after."""
    monkeypatch.setattr(kernels, "_plans", OrderedDict())
    monkeypatch.setattr(kernels, "_plans_held", 0)


def lenet_weight_sets():
    """Per weighted lenet kernel: kind, batch-1 input shape, options, and the
    weights of lenet seed 0 and of an obfuscated lenet seed 5's bundle, one
    geometry with two weight sets."""
    g = build_fixture("lenet", 0)
    consts = materialize_constants(g)
    public, bundle, _ = obfuscate(build_fixture("lenet", 5), ObfuscationConfig(seed=1))
    for (_, _, kind, ins, _, opts, _), (_, _, _, _, weights, _, _) in zip(
            interpreter.compile_program(g, None, decode_options)[0],
            interpreter.compile_program(public, bundle.table, decode_options)[0]):
        if kind in WEIGHTED:
            original = [consts[t] for t in ins[1:]]
            assert [w.shape for w in weights] == [w.shape for w in original]
            yield kind, g.tensors[ins[0]].shape, opts, original, list(weights)


def test_plans_take_each_calls_weights(fresh_plans):
    # the original's weights, the bundle's and random ones, alternated on
    # one geometry's plan, each give the oracle's bytes
    rng = runi(111)
    kinds = []
    for kind, shape, opts, original, shipped in lenet_weight_sets():
        kernel, oracle = WEIGHTED[kind]
        kinds.append(kind)
        x = rand(rng, (1, *shape[1:]))
        sets = [original, shipped, [rand(rng, w.shape) for w in original]]
        want = [call(oracle, x, ws, opts).tobytes() for ws in sets]
        for k in range(7):
            assert call(kernel, x, sets[k % 3], opts).tobytes() == want[k % 3], (kind, k)
    assert kinds == [BuiltinOp.CONV_2D, BuiltinOp.CONV_2D, BuiltinOp.DENSE]
    assert len(kernels._plans) == 3


@pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
def test_same_conv_plan_border_stays_zero(depthwise, fresh_plans, monkeypatch):
    # ones, then random input, on one plan: the second call gives the
    # bytes of a call on a fresh plan, and the oracle's
    kernel, oracle = ((depthwise_conv2d, ref.depthwise_conv2d_ref) if depthwise
                      else (conv2d, ref.conv2d_ref))
    rng = runi(112)
    wt = rand(rng, (3, 3, 2) if depthwise else (3, 3, 2, 4))
    x = rand(rng, (1, 6, 7, 2))
    for s in (1, 2):
        opts = ConvOptions(s, s, Padding.SAME, Activation.NONE)
        kernel(np.ones_like(x), wt, None, opts)
        got = kernel(x, wt, None, opts).tobytes()
        with monkeypatch.context() as m:
            m.setattr(kernels, "_plans", OrderedDict())
            assert kernel(x, wt, None, opts).tobytes() == got
        assert got == oracle(x, wt, None, opts).tobytes()


@pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
def test_chunk_plans_repeat_bit_identical(depthwise, fresh_plans, monkeypatch):
    # batch 7 in 2-image chunks: three full chunks and a 1-image one, each
    # on the plan of its image count; a second call reuses both plans
    kernel, oracle = ((depthwise_conv2d, ref.depthwise_conv2d_ref) if depthwise
                      else (conv2d, ref.conv2d_ref))
    rng = runi(113)
    x, wt = chunked_conv_case(rng, depthwise, 7, 3, Padding.SAME)
    monkeypatch.setattr(kernels, "_CONV_CHUNK_BYTES",
                        two_image_chunk_bytes(x, wt, Padding.SAME))
    opts = ConvOptions(1, 1, Padding.SAME, Activation.RELU)
    want = oracle(x, wt, None, opts).tobytes()
    assert kernel(x, wt, None, opts).tobytes() == want
    assert sorted(key[0] for key in kernels._plans) == [1, 2]
    assert kernel(x, wt, None, opts).tobytes() == want
    assert len(kernels._plans) == 2


def test_threads_never_share_a_plan():
    # 4 threads x 300 calls of lenet's second Conv2D, each thread on its
    # own input: a plan shared while in use mixes one call's stage or
    # accumulator into another's output
    _, shape, opts, weights, _ = list(lenet_weight_sets())[1]
    rng = runi(114)
    xs = [rand(rng, (1, *shape[1:])) for _ in range(4)]
    want = [call(conv2d, x, weights, opts).tobytes() for x in xs]
    wrong = [0] * 4

    def work(i):
        for _ in range(300):
            wrong[i] += call(conv2d, xs[i], weights, opts).tobytes() != want[i]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0] * 4


def test_plans_hold_no_caller_arrays():
    rng = runi(115)
    cases = [(conv2d, (2, 6, 6, 3), (3, 3, 3, 4), ConvOptions(1, 1, Padding.SAME, Activation.NONE)),
             (depthwise_conv2d, (1, 6, 6, 3), (3, 3, 3),
              ConvOptions(2, 2, Padding.VALID, Activation.NONE)),
             (dense, (3, 40), (40, 16), DenseOptions(Activation.NONE))]
    for kernel, xs, ws, opts in cases:
        x, w = rand(rng, xs), rand(rng, ws)
        refs = weakref.ref(x), weakref.ref(w)
        kernel(x, w, None, opts)
        del x, w
        gc.collect()
        assert all(r() is None for r in refs), kernel


def test_plan_cache_stays_under_its_cap(fresh_plans, monkeypatch):
    # 40 Dense and 40 Conv2D geometries through a 64 KiB cache: held bytes
    # stay the sum of the cached plans and within the cap, the least
    # recently used plans go first, and a plan over the cap is not kept
    cap = 64 * 1024
    monkeypatch.setattr(kernels, "_PLAN_CACHE_BYTES", cap)
    rng = runi(116)
    opts = ConvOptions(1, 1, Padding.SAME, Activation.NONE)
    calls = ([(dense, (1, fin), (fin, 32), DenseOptions(Activation.NONE))
              for fin in range(8, 48)]
             + [(conv2d, (1, h, 3, 1), (3, 3, 1, 2), opts) for h in range(3, 43)])
    for kernel, xs, ws, o in calls:
        kernel(rand(rng, xs), rand(rng, ws), None, o)
        held = sum(plan[0] for plan in kernels._plans.values())
        assert kernels._plans_held == held <= cap
    kept = list(kernels._plans)
    assert 1 < len(kept) < len(calls)
    assert kept[-1][1] == (42, 3, 1)  # the last geometry, most recently used
    dense(rand(rng, (1, 256)), rand(rng, (256, 80)), None, DenseOptions(Activation.NONE))
    assert list(kernels._plans) == kept


def plan_layout(plan):
    """A plan's byte count, order and ufunc buffer, and the shape, strides
    and offset into its buffer of every array it holds, in plan order."""
    def layout(a):
        if a is None:
            return None
        root = a
        while root.base is not None:
            root = root.base
        start = a.__array_interface__["data"][0] - root.__array_interface__["data"][0]
        return a.shape, a.strides, start

    nbytes, wbuf, xin, acc, steps, kept, order, bufsize = plan
    return (nbytes, order, bufsize, [layout(a) for a in (wbuf, xin, acc, kept)],
            [[layout(a) for a in step] for step in steps])


@pytest.mark.parametrize("chunk", [None, 4096], ids=["default", "patched"])
def test_conv_geometry_memo_equals_a_fresh_computation(chunk, fresh_plans, monkeypatch):
    # every fixture convolution at batch 1, 7 and 256: the memoized geometry
    # is what an uncached computation gives, its plans are laid out alike,
    # and the kernel ran on the plans of the current chunk bytes
    if chunk:
        monkeypatch.setattr(kernels, "_CONV_CHUNK_BYTES", chunk)
    rng = runi(117)
    for name, shape, wt, opts in FIXTURE_CONVS:
        kernel = depthwise_conv2d if wt.ndim == 3 else conv2d
        for n in (1, 7, 256):
            x = rand(rng, (n, *shape[1:]))
            kernel(x, wt, None, opts)
            args = (x.shape, wt.shape, opts.stride_h, opts.stride_w, opts.padding,
                    kernels._CONV_CHUNK_BYTES)
            got, fresh = kernels._conv_geometry(*args), kernels._conv_geometry.__wrapped__(*args)
            assert got[:-1] == fresh[:-1], (name, n)
            nb, rc = got[2], got[5]
            for b in {nb, n % nb or nb}:
                assert plan_layout(got[-1](b)) == plan_layout(fresh[-1](b)), (name, n, b)
                assert (b, x.shape[1:], wt.shape, *args[2:5], rc) in kernels._plans


@pytest.mark.parametrize("kernel,oracle", [(max_pool2d, ref.max_pool2d_ref),
                                           (avg_pool2d, ref.avg_pool2d_ref)])
def test_pools_match_oracle_exactly(kernel, oracle):
    rng = runi(104)
    for _ in range(100):
        f = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        pad = Padding.SAME if rng.integers(2) else Padding.VALID
        n = int(rng.integers(1, 3))
        h = int(rng.integers(f, 9))
        w = int(rng.integers(f, 9))
        c = int(rng.integers(1, 4))
        x = rand(rng, (n, h, w, c))
        opts = PoolOptions(f, f, stride, stride, pad)
        assert np.array_equal(kernel(x, opts), oracle(x, opts))


def test_softmax_matches_oracle_exactly():
    rng = runi(105)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 13))
        x = (rng.random((n, c), dtype=F) - F(0.5)) * F(8.0)
        assert np.array_equal(softmax(x), ref.softmax_ref(x))


def test_elementwise_match_oracle_exactly():
    rng = runi(106)
    for _ in range(100):
        shape = tuple(int(d) for d in rng.integers(1, 5, size=3))
        x = rand(rng, shape) * F(20.0)
        y = rand(rng, shape)
        assert np.array_equal(relu(x), ref.relu_ref(x))
        assert np.array_equal(relu6(x), ref.relu6_ref(x))
        assert np.array_equal(add(x, y), ref.add_ref(x, y))


# -- shape handling ---------------------------------------------------------------

def test_concat_axis():
    a = np.ones((1, 2, 2, 3), F)
    b = np.zeros((1, 2, 2, 5), F)
    out = concat([a, b], ConcatOptions(axis=3))
    assert out.shape == (1, 2, 2, 8)
    out2 = concat([a, b], ConcatOptions(axis=-1))
    assert np.array_equal(out, out2)
    with pytest.raises(ShapeMismatch):
        concat([a, np.zeros((2, 2, 2, 5), F)], ConcatOptions(axis=3))


def test_reshape_wildcard():
    x = np.arange(24, dtype=F).reshape(2, 3, 4)
    out = reshape(x, np.array([-1, 12], np.int32))
    assert out.shape == (2, 12)
    with pytest.raises(ShapeMismatch):
        reshape(x, np.array([-1, 5], np.int32))
    with pytest.raises(UnsupportedDtype):
        reshape(x, np.array([2, 12], np.int64))


def test_flatten():
    x = np.arange(24, dtype=F).reshape(2, 3, 4)
    assert flatten(x).shape == (2, 12)
    with pytest.raises(ShapeMismatch):
        flatten(np.ones(3, F))


# every builtin's input-count bounds; CONCAT takes any number from one up
ARITY = {
    BuiltinOp.CONV_2D: (2, 3), BuiltinOp.DEPTHWISE_CONV_2D: (2, 3),
    BuiltinOp.DENSE: (2, 3), BuiltinOp.RELU: (1, 1), BuiltinOp.RELU6: (1, 1),
    BuiltinOp.MAX_POOL_2D: (1, 1), BuiltinOp.AVG_POOL_2D: (1, 1),
    BuiltinOp.ADD: (2, 2), BuiltinOp.CONCAT: (1, None),
    BuiltinOp.SOFTMAX: (1, 1), BuiltinOp.RESHAPE: (2, 2),
    BuiltinOp.FLATTEN: (1, 1),
}


@pytest.mark.parametrize("kind", list(BuiltinOp), ids=lambda k: k.name)
def test_execute_builtin_rejects_input_counts_outside_arity(kind):
    lo, hi = ARITY[kind]
    counts = [lo - 1] + ([hi + 1] if hi is not None else [])
    for n in counts:
        message = rf"^{kind.name} expects {lo}\.\.\S+ inputs, got {n}$"
        with pytest.raises(ShapeMismatch, match=message):
            execute_builtin(kind, [np.ones((1, 2, 2, 1), F)] * n, None)


def test_execute_builtin_rejects_an_unknown_kind():
    with pytest.raises(ShapeMismatch, match="^unknown builtin kernel 99$"):
        execute_builtin(99, [np.ones((1, 4), F)], None)


# kernel name -> (call with a bias, its weights, the expected bias length)
_BIASED = {
    "Conv2D": (conv2d, np.ones((3, 3, 2, 4), F),
               ConvOptions(1, 1, Padding.SAME, Activation.RELU), 4),
    "DepthwiseConv2D": (depthwise_conv2d, np.ones((3, 3, 2), F),
                        ConvOptions(1, 1, Padding.VALID, Activation.NONE), 2),
    "Dense": (dense, np.ones((72, 5), F), DenseOptions(Activation.RELU6), 5),
}


@pytest.mark.parametrize("name", sorted(_BIASED))
@pytest.mark.parametrize("bias_shape", [(3,), (1, 4), (0,), (6,)])
def test_wrong_bias_shape_names_the_kernel(name, bias_shape):
    kernel, w, opts, co = _BIASED[name]
    x = np.ones((2, 6, 6, 2), F)
    if name == "Dense":
        x = x.reshape(2, -1)
    kernel(x, w, np.ones(co, F), opts)  # the right shape passes
    message = re.escape(f"{name} bias shape {bias_shape} != ({co},)")
    with pytest.raises(ShapeMismatch, match=f"^{message}$"):
        kernel(x, w, np.ones(bias_shape, F), opts)


def _ones(*shape):
    return np.ones(shape, F)


_CONV = ConvOptions(1, 1, Padding.VALID, Activation.NONE)
_POOL = PoolOptions(2, 2, 1, 1, Padding.VALID)
_NO_ACT = DenseOptions(Activation.NONE)

# every shape check's failure, one per check, and its exact message
_CHECKS = [
    (lambda: conv2d(_ones(1, 4, 4, 2), _ones(3, 3, 2, 4), _ones(3), _CONV),
     "Conv2D bias shape (3,) != (4,)"),
    (lambda: conv2d(_ones(1, 3, 6, 2), _ones(5, 3, 2, 4), None, _CONV),
     "window 5 larger than input extent 3"),
    (lambda: max_pool2d(_ones(1, 6, 1, 2), _POOL), "window 2 larger than input extent 1"),
    (lambda: conv2d(_ones(1, 6, 6, 2), _ones(3, 3, 3, 4), None, _CONV),
     "Conv2D channels: input 2 vs weight 3"),
    (lambda: conv2d(_ones(6, 6, 2), _ones(3, 3, 2, 4), None, _CONV),
     "Conv2D input must be NHWC, got rank 3"),
    (lambda: conv2d(_ones(1, 6, 6, 2), _ones(3, 3, 2), None, _CONV),
     "Conv2D weight must be (kh, kw, cin, cout), got rank 3"),
    (lambda: depthwise_conv2d(_ones(1, 6, 6, 2, 1), _ones(3, 3, 2), None, _CONV),
     "DepthwiseConv2D input must be NHWC, got rank 5"),
    (lambda: depthwise_conv2d(_ones(1, 6, 6, 2), _ones(3, 3, 2, 1), None, _CONV),
     "DepthwiseConv2D weight must be (kh, kw, c), got rank 4"),
    (lambda: depthwise_conv2d(_ones(1, 6, 6, 2), _ones(3, 3, 4), None, _CONV),
     "DepthwiseConv2D channels: input 2 vs weight 4"),
    (lambda: dense(_ones(8), _ones(8, 3), None, _NO_ACT),
     "Dense input must be (batch, features), got rank 1"),
    (lambda: dense(_ones(1, 8), _ones(8, 3, 1), None, _NO_ACT),
     "Dense weight must be (in, out), got rank 3"),
    (lambda: dense(_ones(1, 8), _ones(7, 3), None, _NO_ACT),
     "Dense features: input 8 vs weight 7"),
    (lambda: avg_pool2d(_ones(6, 6, 2), _POOL), "AvgPool2D input must be NHWC, got rank 3"),
    (lambda: add(_ones(2, 3), _ones(3, 2)), "Add shapes differ: (2, 3) vs (3, 2)"),
    (lambda: concat([], ConcatOptions(0)), "Concat needs at least one input"),
    (lambda: concat([_ones(2, 3)], ConcatOptions(-3)), "Concat axis -3 invalid for rank 2"),
    (lambda: concat([_ones(2, 3), _ones(2, 3, 1)], ConcatOptions(1)), "Concat ranks differ"),
    (lambda: concat([_ones(2, 3), _ones(4, 5)], ConcatOptions(1)),
     "Concat shapes differ off-axis: (4, 5) vs (2, 3)"),
    (lambda: softmax(_ones(2, 0)), "Softmax needs a non-empty last axis"),
    (lambda: reshape(_ones(2, 3), np.array([[6]], np.int32)),
     "Reshape shape input must be rank 1"),
    (lambda: reshape(_ones(2, 3), np.array([-1, -1], np.int32)),
     "Reshape allows at most one -1 wildcard"),
    (lambda: reshape(_ones(2, 3), np.array([0, 6], np.int32)), "Reshape dims invalid: [0, 6]"),
    (lambda: reshape(_ones(2, 3), np.array([-1, 4], np.int32)),
     "Reshape cannot infer -1: 6 elements into [-1, 4]"),
    (lambda: reshape(_ones(2, 3), np.array([4, 2], np.int32)),
     "Reshape size mismatch: 6 elements into [4, 2]"),
    (lambda: flatten(_ones(3)), "Flatten input must have rank >= 2, got 1"),
]


@pytest.mark.parametrize("check,message", _CHECKS, ids=[m for _, m in _CHECKS])
def test_every_shape_check_keeps_its_message(check, message):
    # twice: a check inside the memoized convolution geometry raises on
    # every call, since a memo caches no error
    for _ in range(2):
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            check()


def test_add_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        add(np.ones((2, 3), F), np.ones((3, 2), F))


def test_dtype_rejection():
    with pytest.raises(UnsupportedDtype):
        relu(np.ones(4, np.float64))
    with pytest.raises(UnsupportedDtype):
        dense(np.ones((1, 2), np.int32), np.ones((2, 2), F), None,
              DenseOptions(Activation.NONE))


def test_batch_dimension_is_free():
    # kernels derive shapes from values, so batching is transparent
    rng = runi(107)
    x1 = rand(rng, (1, 6, 6, 2))
    x2 = rand(rng, (1, 6, 6, 2))
    w = rand(rng, (3, 3, 2, 4))
    opts = ConvOptions(1, 1, Padding.SAME, Activation.RELU)
    both = conv2d(np.concatenate([x1, x2]), w, None, opts)
    assert np.array_equal(both[0:1], conv2d(x1, w, None, opts))
    assert np.array_equal(both[1:2], conv2d(x2, w, None, opts))
