"""Dense tensors with reverse-mode automatic differentiation.

The op set is what the dialogue-comprehension model runs: matrix products,
elementwise add and mul, per-segment row means, concatenation along rows and
along the last axis, affine maps, layer norm, tanh, row gathers, reshape,
multi-head attention and a cross-entropy head. Three more ops are reference
code that the model never calls: ``softmax_rows``, ``transpose`` and
``sum_all``. The per-head op chain that ``attention`` is checked against bit
for bit is built from them, and so are the tests' losses and the autodiff
demo.

Elementwise ops do not broadcast. ``add`` and ``mul`` take a Tensor, then a
Tensor of exactly its shape or a Python number. The number is a constant:
it is cast to the tensor's dtype and joins the data, never the graph. A
Tensor of any other shape, rank 0 included, raises ``ShapeError``.

Precision policy: float64 is the verification dtype. In float64, matrix
products accumulate sequentially over the inner axis, so results are
bit-identical to a naive triple loop. float32 (the training default)
delegates to BLAS for speed and carries no bitwise guarantee.

Gradient semantics: each op's backward function is pure. It maps the
output gradient to one gradient per parent and touches no ``.grad``.
``Tensor.backward`` alone sums those contributions and decides which
parents receive them, so only leaves (tensors created with
``requires_grad=True``) keep a ``.grad``; interior nodes never hold one.
``backward()`` may be called repeatedly: each call adds the exact gradient
of that graph to every leaf's ``.grad``, and it may start from a given seed
gradient instead of ones.

Attention is one op: ``attention`` runs all heads at once and adds one
graph node, where the chain of matmul, transpose, mul, softmax_rows and
concat_last_axis ops that computes the same adds 8h+1. Each role's
weights are one [h, d, width] tensor, head i's projection being slice i,
and each role is projected by one product through it; scores, softmax and
head outputs are batched products over the head axis, scaled by
1/sqrt(width) of the keys. ``_matmul_data`` takes that batch axis, so
float64 values equal the chain's bit for bit. The backward returns one
gradient per weight tensor, and for the inputs one slot per (head, role),
each a slice of one batched product in which every head keeps the chain's
array layouts, since BLAS may round another layout differently: the query
gradient goes through the transposed view of the keys' contiguous
transposed copy, and the key gradient is (q^T gs)^T. A tensor that several
roles of one call share (self-attention's input, or the keys and values of
a cross-attention) receives its slots in the chain's order, head h-1 first
and within a head value, key, query; distinct inputs are first reached in
the order query, key, value, so the topological order of the rest of the
graph is unchanged. One order cannot be kept: when the keys are computed
from the queries (key-turn refinement gathers its keys from the context
rows it attends from), the chain adds the gather's gradient to the queries
just before head 0's query term, and the one op adds it after all the
query terms. So float64 training through that path may differ from the
chain in the last bits; forward values do not.

Stacked sequences: several sequences can run through one set of ops as the
rows of one matrix. Row-wise ops (gathers, adds, affine maps, layer norm,
tanh) need nothing for that; ``attention`` and ``segment_mean`` take the
sequences' ``lengths`` and work per segment on that segment's rows only, so
no padding enters a reduction. ``attention`` also takes separate key
lengths, so query segment i can attend over key segment i of another
stacked matrix: one call for the cross-attentions of several answer
options. Segments of one shape run as one batch: ``attention`` makes one
set of batched products per distinct (query rows, key rows) shape, over a
[h, segments, rows, width] array, and ``segment_mean`` one mean per
distinct length. When one shape covers every segment, that array is a
reshape of the stacked rows; otherwise rows are gathered by index and the
results scattered back by row. Every row keeps its own products and
reductions, in the chain's array layouts. In
float64 each segment's values equal those of running its sequence alone,
bit for bit, and with one segment the gradients do too, in the same
summation order. With several segments the weight gradients are sums over
all rows at once, so they may differ from per-sequence sums in the last
bits.

Grad mode: inside ``with no_grad():`` ops compute the same values but
attach no parents and no backward function, so their outputs have
``requires_grad=False`` and ``backward()`` on them raises ``ValueError``.
Forward-only code (evaluation, turn scoring) runs there to skip building a
graph nobody differentiates. The scope nests and restores the previous mode
on exit, exceptions included. Anything that caches op outputs across calls
must not serve a graph-free output to graph-building code; see
``FactEncoder``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math

import numpy as np

DEFAULT_DTYPE = np.float64
# Added to each row variance in `layer_norm`.
LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class Tensor:
    """A dense array plus an optional gradient and its place in the op graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None):
        """Add the gradient of this tensor to ``.grad`` of every reachable leaf.

        Seeds with ``grad``, an array of this tensor's shape, or with ones
        (for a scalar this is d(self)/d(self) = 1). In reverse
        topological order, each node's summed gradient goes through its op's
        backward function, and every parent that requires a gradient gets its
        share, in parent order. The sums live in a table local to this call,
        so interior nodes never get a ``.grad``. A leaf's sum is copied into
        a new ``.grad`` or added to the one it has, so repeated calls
        accumulate; set a leaf's ``grad`` to None to start over.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no graph attached")
        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=self.dtype)
        if seed.shape != self.shape:
            raise ShapeError(f"backward: seed gradient {seed.shape} does not match {self.shape}")
        grads = {self: seed}
        for node in reversed(_topo_order(self)):
            if not node.requires_grad:
                continue
            g = grads.pop(node)
            if node._backward is None:
                # A copy: contributions may be views of one shared array.
                if node.grad is None:
                    node.grad = np.array(g)
                else:
                    node.grad += g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if parent.requires_grad:
                    grads[parent] = grads[parent] + pg if parent in grads else pg


def _topo_order(root):
    # Iterative postorder; each node appears exactly once.
    order = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    return order


_grad_enabled = True


def is_grad_enabled() -> bool:
    """True unless the caller is inside a ``no_grad`` scope."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Scope in which ops build no graph; nests, and restores the previous
    mode on exit, exceptions included. The mode is process-wide, not per
    thread."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data, parents, backward_fn):
    # The one choke point of every op: the graph is attached here or not at all.
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _matmul_data(a, b):
    # float64: sequential accumulation over the inner axis, bit-identical to
    # the naive triple loop. Other dtypes go through BLAS.
    if a.dtype != np.float64:
        return a @ b
    out = a[..., :, 0:1] * b[..., 0:1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D ``a`` [m, k] and 2-D ``b`` [k, n]."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    data = _matmul_data(a.data, b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _result(data, (a, b), backward)


def _operand(a, b, name):
    """The data of ``b`` and the parents of an elementwise op on ``a``: a
    Tensor ``b`` of ``a``'s shape is a parent; a number is cast to ``a``'s
    dtype and joins the data, never the graph."""
    if not isinstance(b, Tensor):
        return np.asarray(float(b), dtype=a.dtype), (a,)
    if a.shape != b.shape:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} differ (elementwise ops do not broadcast)")
    return b.data, (a, b)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum of a Tensor and a Tensor of its shape or a number."""
    b_data, parents = _operand(a, b, "add")
    return _result(a.data + b_data, parents, lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of a Tensor and a Tensor of its shape or a number."""
    b_data, parents = _operand(a, b, "mul")
    if len(parents) == 1:
        return _result(a.data * b_data, parents, lambda g: (g * b_data,))
    return _result(a.data * b_data, parents, lambda g: (g * b_data, g * a.data))


def _softmax_rows_data(x):
    # Over the last axis, each step in place on one new array. Rows are short,
    # so the row max is one elementwise maximum per key column over a copy with
    # the key axis first; a max is exact in any order, and where the order
    # changes the sign of a zero max, x - (+-0) differs only at x = +-0, where
    # exp gives 1 either way. The sums are ``.sum``'s own ufunc call.
    e = x - np.maximum.reduce(x.transpose(-1, *range(x.ndim - 1)).copy())[..., None]
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def _softmax_rows_grad(y, g):
    d = g - np.add.reduce(g * y, axis=-1, keepdims=True)
    return np.multiply(d, y, out=d)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction."""
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got {x.shape}")
    y = _softmax_rows_data(x.data)
    return _result(y, (x,), lambda g: (_softmax_rows_grad(y, g),))


def attention(q_seq: Tensor, k_seq: Tensor, v_seq: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
              lengths=None, key_lengths=None) -> Tensor:
    """Multi-head scaled dot-product attention as one op, [m, d] -> [m, h * d_v].

    ``wq``, ``wk`` and ``wv`` hold each role's projections as one [h, d_in,
    width] tensor, head i's being slice i, so the head count is their first
    axis and must agree, and the query and key widths must too (``ShapeError``
    otherwise). Head i is softmax((q_seq wq[i]) (k_seq wk[i])^T /
    sqrt(d_k)) (v_seq wv[i]), with d_k the key width ``wk.shape[2]``, and
    the heads are concatenated along the last axis. The values and gradients
    are those of the per-head chain of matmul, transpose, mul, softmax_rows
    and concat_last_axis ops; see the module docstring.

    ``lengths`` splits the query rows, and ``key_lengths`` the key/value
    rows, into equally many consecutive segments, and query segment i
    attends over key segment i only: several independent attentions stacked
    into one call. Without ``key_lengths`` the keys are split like the
    queries (then equally many), which is self-attention over the stacked
    rows of several sequences. The projections run once over all rows;
    scores, softmax and the head outputs run once per distinct (query rows,
    key rows) shape of the segment pairs, batched over the pairs of that
    shape, with no padding or mask. ``None`` is one segment of all queries
    over all keys, and so is a single length.
    """
    seqs, ws = (q_seq, k_seq, v_seq), (wq, wk, wv)
    if any(x.ndim != 2 for x in seqs) or k_seq.shape[0] != v_seq.shape[0]:
        raise ShapeError(f"attention: need 2-D q/k/v with as many keys as values, got {[x.shape for x in seqs]}")
    if any(w.ndim != 3 or w.shape[1] != x.shape[1] for x, w in zip(seqs, ws)):
        raise ShapeError(f"attention: projections {[w.shape for w in ws]} are not [h, d_in, width] on {[x.shape for x in seqs]}")
    heads = wq.shape[0]
    if heads == 0 or wk.shape[0] != heads or wv.shape[0] != heads or wq.shape[2] != wk.shape[2]:
        raise ShapeError(f"attention: need equal, non-zero head counts and query and key widths, got {[w.shape for w in ws]}")
    if lengths is None and key_lengths is not None:
        raise ShapeError("attention: key lengths need query lengths")
    rows = (q_seq.shape[0], k_seq.shape[0])
    # One group of one pair, all queries over all keys, unless lengths split them.
    groups = (((0,), rows, (None, None)),)
    if lengths is not None:
        q_lengths = tuple(lengths)
        k_lengths = q_lengths if key_lengths is None else tuple(key_lengths)
        if len(q_lengths) != len(k_lengths):
            raise ShapeError(f"attention: {len(q_lengths)} query segments but {len(k_lengths)} key segments")
        groups = _segment_groups("attention", (q_lengths, rows[0]), (k_lengths, rows[1]))
    # The weights as they are now: optimizers rebind ``.data``, never write it.
    w3 = [w.data for w in ws]
    # One product per role: [h, rows, width].
    q, k, v = (_matmul_data(x.data, w) for x, w in zip(seqs, w3))
    c = np.asarray(1.0 / math.sqrt(wk.shape[2]), dtype=q.dtype)

    def batch(x, idx, count, n):
        # [h, rows, width] -> [h, count, n, width]: a reshape, or a gather by
        # row into a new C-ordered array (``x[:, idx]`` would order it by row).
        return (x if idx is None else np.take(x, idx, axis=1)).reshape(heads, count, n, x.shape[2])

    outs, kept = zip(*(_heads_forward(batch(q, qi, len(seg), m), batch(k, ki, len(seg), n), batch(v, ki, len(seg), n), c)
                       for seg, (m, n), (qi, ki) in groups))
    out = _unbatch(outs, groups, 0, rows[0])
    # For each role, the first role that passes the same tensor.
    slots = _slot_order(heads, (0, 0 if k_seq is q_seq else 1, 0 if v_seq is q_seq else 1 if v_seq is k_seq else 2))

    def backward(g):
        # Head i's output gradient is a view of g's i-th block of columns.
        gh = g.reshape(g.shape[0], heads, -1)
        per = [_heads_backward(kp, (gh if qi is None else gh[qi]).reshape(len(seg), m, heads, -1).transpose(2, 0, 1, 3), c)
               for kp, (seg, (m, _), (qi, _)) in zip(kept, groups)]
        # Query gradients go back to the query rows, key and value gradients to the key rows.
        gy = [_unbatch([p[r] for p in per], groups, min(r, 1), rows[min(r, 1)]) for r in range(3)]
        g_seq = [gy[r] @ w3[r].transpose(0, 2, 1) for r in range(3)]
        return [g_seq[r][i] for i, r in slots] + [seqs[r].data.T @ gy[r] for r in range(3)]

    parents = [seqs[r] for _, r in slots] + list(ws)
    # C order, as the chain's concatenation has, also for width-1 heads, where
    # the reshape would be a column-major view and its gradient would follow.
    return _result(np.ascontiguousarray(out.transpose(1, 0, 2).reshape(rows[0], -1)), parents, backward)


@functools.lru_cache(maxsize=None)
def _slot_order(heads, first):
    # The (head, role) gradient slots of the inputs, in the module docstring's order.
    return tuple(sorted(((i, r) for i in reversed(range(heads)) for r in (2, 1, 0)), key=lambda s: first[s[1]]))


def _heads_forward(q, k, v, c):
    # All heads over a batch of segments of one shape: the output and what the backward needs.
    kT = k.swapaxes(-1, -2).copy()
    scores = _matmul_data(q, kT)
    p = _softmax_rows_data(np.multiply(scores, c, out=scores))
    return _matmul_data(p, v), (q, kT, v, p)


def _heads_backward(kept, gh, c):
    # All heads' query, key and value gradients over that batch, in the chain's layouts.
    q, kT, v, p = kept
    gs = _softmax_rows_grad(p, gh @ v.swapaxes(-1, -2))
    gs *= c
    return gs @ kT.swapaxes(-1, -2), (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2), p.swapaxes(-1, -2) @ gh


def _unbatch(parts, groups, side, rows):
    # Each group's [h, count, n, width] array back into one [h, rows, width]
    # array, every row in its place on the given side of the segment pairs.
    h, width = parts[0].shape[0], parts[0].shape[-1]
    if len(groups) == 1:
        return parts[0].reshape(h, rows, width)
    out = np.empty((h, rows, width), parts[0].dtype)
    for part, (_, _, idx) in zip(parts, groups):
        out[:, idx[side]] = part.reshape(h, -1, width)
    return out


def _segment_edges(lengths, rows, name):
    lengths = [int(n) for n in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != rows:
        raise ShapeError(f"{name}: segment lengths {lengths} must be >= 1 and sum to the {rows} rows")
    return list(itertools.accumulate(lengths, initial=0))


@functools.lru_cache(maxsize=4096)
def _segment_groups(name, *sides):
    """The segments of a stacked call, grouped by shape so that each group
    runs as one batch. ``sides`` holds one (lengths, rows) per stacked
    matrix, with equally many segments; segment i's shape is its length on
    every side. One (segments, shape, row indices) per shape, in order of
    first appearance: the indices of its segments, its lengths, and for each
    side the rows of those segments in order, or None where one shape
    covers every segment and its rows are all rows in order. Cached, so the
    index arrays are read-only."""
    edges = [_segment_edges(lengths, rows, name) for lengths, rows in sides]
    members = {}
    for i, shape in enumerate(zip(*(map(int, lengths) for lengths, _ in sides))):
        members.setdefault(shape, []).append(i)
    if len(members) == 1:
        (shape, segments), = members.items()
        return ((tuple(segments), shape, (None,) * len(sides)),)
    groups = []
    for shape, segments in members.items():
        idx = [np.concatenate([np.arange(e[i], e[i + 1]) for i in segments]) for e in edges]
        for a in idx:
            a.flags.writeable = False
        groups.append((tuple(segments), shape, tuple(idx)))
    return tuple(groups)


def segment_mean(x: Tensor, lengths) -> Tensor:
    """Mean over the rows of each consecutive segment of a 2-D tensor,
    [sum(lengths), n] -> [len(lengths), n]. Row j is the numpy mean of
    segment j's rows, bit for bit. Segments of one length are reduced as
    one [segments, length, n] batch, each row keeping its own reduction."""
    if x.ndim != 2:
        raise ShapeError(f"segment_mean needs a 2-D tensor, got {x.shape}")
    lengths = tuple(lengths)
    groups = _segment_groups("segment_mean", (lengths, x.shape[0]))
    cols = x.shape[1]
    if len(groups) == 1:
        n = groups[0][1][0]
        data = np.add.reduce(x.data.reshape(len(lengths), n, cols), axis=1) / n
    else:
        data = np.empty((len(lengths), cols), x.dtype)
        for segments, (n,), (rows,) in groups:
            data[list(segments)] = np.add.reduce(x.data[rows].reshape(len(segments), n, cols), axis=1) / n
    counts = np.asarray(lengths, dtype=np.intp)
    # Counts in the data's dtype: float32 gradients stay float32.
    per_row = counts.astype(x.dtype)[:, None]

    def backward(g):
        return (np.repeat(g / per_row, counts, axis=0),)

    return _result(data, (x,), backward)


def concat_last_axis(xs) -> Tensor:
    """Concatenate tensors along their last axis; all other dims must agree.
    A single tensor is returned as it is, without a graph node."""
    xs = list(xs)
    if not xs:
        raise ShapeError("concat_last_axis: no inputs")
    if len(xs) == 1:
        return xs[0]
    lead = xs[0].shape[:-1]
    for t in xs[1:]:
        if t.shape[:-1] != lead or t.ndim != xs[0].ndim:
            raise ShapeError(
                f"concat_last_axis: incompatible shapes {[t.shape for t in xs]}"
            )
    data = np.concatenate([t.data for t in xs], axis=-1)

    def backward(g):
        edges = list(itertools.accumulate((t.shape[-1] for t in xs), initial=0))
        return tuple(g[..., lo:hi] for lo, hi in zip(edges, edges[1:]))

    return _result(data, xs, backward)


def concat_rows(xs) -> Tensor:
    """Concatenate 2-D tensors of equal width along the row axis. A single
    tensor is returned as it is, without a graph node."""
    xs = list(xs)
    if not xs or any(t.ndim != 2 or t.shape[1] != xs[0].shape[1] for t in xs):
        raise ShapeError(f"concat_rows: need 2-D inputs of one width, got {[t.shape for t in xs]}")
    if len(xs) == 1:
        return xs[0]
    edges = list(itertools.accumulate((t.shape[0] for t in xs), initial=0))

    def backward(g):
        return tuple(g[lo:hi] for lo, hi in zip(edges, edges[1:]))

    return _result(np.concatenate([t.data for t in xs], axis=0), xs, backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor by index; duplicates allowed.

    Doubles as embedding lookup when ``x`` is an embedding table.
    ``indices`` is a list, an ndarray (copied) or any other iterable of
    ints; one outside [0, rows) raises ``IndexError``.
    """
    if x.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D tensor, got {x.shape}")
    idx = np.array(indices if isinstance(indices, (list, np.ndarray)) else list(indices), dtype=np.intp)
    # As unsigned, a negative index is above every row count: one reduction checks both bounds.
    if idx.size and idx.view(np.uintp).max() >= x.shape[0]:
        raise IndexError(f"take_rows: index out of range for {x.shape[0]} rows: {idx.tolist()}")
    data = x.data[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _result(data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    """Transpose of a 2-D tensor."""
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.shape}")

    def backward(g):
        return (g.T,)

    return _result(x.data.T.copy(), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    """Reshape preserving element count."""
    shape = tuple(shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")

    def backward(g):
        return (g.reshape(x.shape),)

    return _result(x.data.reshape(shape), (x,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of a 2-D ``x``, one output row per input row.

    The bias is applied per row; that row-wise add is part of this op's
    contract, not general broadcasting.
    """
    if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine: weight {w.shape} and bias {b.shape} do not agree")
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: input {x.shape} is not 2-D rows matching weight {w.shape}")
    data = _matmul_data(x.data, w.data) + b.data[None, :]

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _result(data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a 2-D tensor to zero mean / unit variance
    (``LAYER_NORM_EPS`` added to the variance), then scale and shift."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-D tensor, got {x.shape}")
    n = x.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match width {n}")
    # Sums over the count: the ufunc calls of ``ndarray.mean``, bit for bit, without its wrapper.
    mu = np.add.reduce(x.data, axis=1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc ** 2, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    data = xhat * gain.data[None, :] + bias.data[None, :]

    def backward(g):
        gh = g * gain.data[None, :]
        gx = inv * (
            gh
            - np.add.reduce(gh, axis=1, keepdims=True) / n
            - xhat * (np.add.reduce(gh * xhat, axis=1, keepdims=True) / n)
        )
        return gx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _result(data, (x, gain, bias), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    y = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - y * y),)

    return _result(y, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements -> scalar."""
    def backward(g):
        return (np.full_like(x.data, float(g)),)

    return _result(x.data.sum(), (x,), backward)


def cross_entropy_from_logits(logits: Tensor, gold: int) -> Tensor:
    """Negative log-softmax probability of index ``gold`` in a 1-D logit vector."""
    if logits.ndim != 1:
        raise ShapeError(f"cross_entropy_from_logits needs a 1-D tensor, got {logits.shape}")
    n = logits.shape[0]
    if not 0 <= gold < n:
        raise IndexError(f"gold index {gold} out of range for {n} options")
    z = logits.data
    m = z.max()
    lse = m + math.log(np.exp(z - m).sum())
    data = np.asarray(lse - z[gold], dtype=z.dtype)
    probs = np.exp(z - lse)

    def backward(g):
        gl = probs * float(g)
        gl[gold] -= float(g)
        return (gl,)

    return _result(data, (logits,), backward)


def uniform_param(shape, rng: np.random.Generator, fan_in=None, dtype=DEFAULT_DTYPE) -> Tensor:
    """Trainable tensor initialized uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)).

    ``fan_in`` defaults to the first dimension (the input width of a weight
    matrix); embedding tables should pass their embedding width instead.
    """
    shape = tuple(shape)
    fan = fan_in if fan_in is not None else shape[0]
    bound = 1.0 / math.sqrt(fan)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def const_param(value, shape, dtype=DEFAULT_DTYPE) -> Tensor:
    """Trainable tensor filled with a constant (layer-norm gains and biases)."""
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=True)
