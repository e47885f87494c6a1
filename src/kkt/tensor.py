"""Dense tensors with reverse-mode automatic differentiation.

The op set is exactly what the dialogue-comprehension model needs: matrix
products, row softmax, row means, concatenation, affine maps, layer norm,
tanh, row gathers and a cross-entropy head. Nothing here broadcasts except
scalar-against-tensor; anything else must reshape explicitly.

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
of that graph to every leaf's ``.grad``. A Python number or numpy array
passed to ``add`` or ``mul`` is a constant: it is cast to the tensor
operand's dtype and joins the data, never the graph.

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
import itertools
import math

import numpy as np

DEFAULT_DTYPE = np.float64


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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -float(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        """Add the gradient of this tensor to ``.grad`` of every reachable leaf.

        Seeds with ones (for a scalar this is d(self)/d(self) = 1). In reverse
        topological order, each node's summed gradient goes through its op's
        backward function, and every parent that requires a gradient gets its
        share, in parent order. The sums live in a table local to this call,
        so interior nodes never get a ``.grad``. A leaf's sum is copied into
        a new ``.grad`` or added to the one it has, so repeated calls
        accumulate; set a leaf's ``grad`` to None to start over.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no graph attached")
        grads = {self: np.ones_like(self.data)}
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
    out = a[:, 0:1] * b[0:1, :]
    for k in range(1, a.shape[1]):
        out = out + a[:, k : k + 1] * b[k : k + 1, :]
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


def _operands(a, b, name):
    """Tensor operand first (IEEE + and * commute exactly), then the other
    operand: a Tensor, or a constant cast to the first one's dtype."""
    if not isinstance(a, Tensor):
        a, b = b, a
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=DEFAULT_DTYPE))
    if not isinstance(b, Tensor):
        b = np.asarray(b, dtype=a.dtype)
    _check_elementwise(a, b, name)
    return a, b


def add(a, b) -> Tensor:
    """Elementwise sum; shapes must match exactly, or one side is a scalar."""
    a, b = _operands(a, b, "add")
    if not isinstance(b, Tensor):
        return _result(a.data + b, (a,), lambda g: (_fit(g, a),))
    data = a.data + b.data

    def backward(g):
        return _fit(g, a), _fit(g, b)

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product; shapes must match exactly, or one side is a scalar."""
    a, b = _operands(a, b, "mul")
    if not isinstance(b, Tensor):
        return _result(a.data * b, (a,), lambda g: (_fit(g * b, a),))
    data = a.data * b.data

    def backward(g):
        return _fit(g * b.data, a), _fit(g * a.data, b)

    return _result(data, (a, b), backward)


def _fit(g, x):
    # A scalar operand of an elementwise op receives the summed gradient.
    return g if x.shape == g.shape else g.sum()


def _check_elementwise(a, b, name):
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} differ (only scalar broadcasting is allowed)")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction."""
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - inner),)

    return _result(y, (x,), backward)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over the row axis of a 2-D tensor [m, n] -> [n]; m must be >= 1."""
    if x.ndim != 2:
        raise ShapeError(f"mean_rows needs a 2-D tensor, got {x.shape}")
    m = x.shape[0]
    if m == 0:
        raise ShapeError("mean_rows: empty sequence (0 rows)")
    data = x.data.mean(axis=0)

    def backward(g):
        return (np.repeat(g[None, :] / m, m, axis=0),)

    return _result(data, (x,), backward)


def concat_last_axis(xs) -> Tensor:
    """Concatenate tensors along their last axis; all other dims must agree."""
    xs = list(xs)
    if not xs:
        raise ShapeError("concat_last_axis: no inputs")
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


def stack_rows(xs) -> Tensor:
    """Stack 1-D tensors of equal length into a 2-D tensor, one per row."""
    xs = list(xs)
    if not xs:
        raise ShapeError("stack_rows: no inputs")
    n = xs[0].shape
    for t in xs:
        if t.ndim != 1 or t.shape != n:
            raise ShapeError(f"stack_rows: need equal-length 1-D inputs, got {[t.shape for t in xs]}")
    data = np.stack([t.data for t in xs], axis=0)

    def backward(g):
        return tuple(g)

    return _result(data, xs, backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor by index; duplicates allowed.

    Doubles as embedding lookup when ``x`` is an embedding table.
    """
    if x.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D tensor, got {x.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
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
    """Affine map ``x @ w + b`` for ``x`` of rank 1 or 2.

    The bias is applied per row; that row-wise add is part of this op's
    contract, not general broadcasting.
    """
    if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine: weight {w.shape} and bias {b.shape} do not agree")
    vector_in = x.ndim == 1
    x2 = x.data[None, :] if vector_in else x.data
    if x2.ndim != 2 or x2.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: input {x.shape} does not match weight {w.shape}")
    data = _matmul_data(x2, w.data) + b.data[None, :]
    if vector_in:
        data = data[0]

    def backward(g):
        g2 = g[None, :] if vector_in else g
        gx = g2 @ w.data.T
        return gx[0] if vector_in else gx, x2.T @ g2, g2.sum(axis=0)

    return _result(data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    vector_in = x.ndim == 1
    x2 = x.data[None, :] if vector_in else x.data
    if x2.ndim != 2:
        raise ShapeError(f"layer_norm needs a 1-D or 2-D tensor, got {x.shape}")
    n = x2.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match width {n}")
    mu = x2.mean(axis=1, keepdims=True)
    var = ((x2 - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x2 - mu) * inv
    data = xhat * gain.data[None, :] + bias.data[None, :]
    if vector_in:
        data = data[0]

    def backward(g):
        g2 = g[None, :] if vector_in else g
        gh = g2 * gain.data[None, :]
        gx = inv * (
            gh
            - gh.mean(axis=1, keepdims=True)
            - xhat * (gh * xhat).mean(axis=1, keepdims=True)
        )
        return gx[0] if vector_in else gx, (g2 * xhat).sum(axis=0), g2.sum(axis=0)

    return _result(data, (x, gain, bias), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    y = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - y * y),)

    return _result(y, (x,), backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two 1-D tensors of equal length -> scalar."""
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: need equal-length 1-D tensors, got {a.shape} and {b.shape}")
    data = _matmul_data(a.data[None, :], b.data[:, None])[0, 0]

    def backward(g):
        return g * b.data, g * a.data

    return _result(data, (a, b), backward)


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
