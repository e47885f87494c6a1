"""Dense tensors with reverse-mode automatic differentiation.

The op set is exactly what the dialogue-comprehension model needs: matrix
products, row softmax, row means, concatenation, affine maps, layer norm,
tanh, row gathers and a cross-entropy head. Nothing here broadcasts except
scalar-against-tensor; anything else must reshape explicitly.

Precision policy: float64 is the verification dtype. In float64, matrix
products accumulate sequentially over the inner axis, so results are
bit-identical to a naive triple loop. float32 (the training default)
delegates to BLAS for speed and carries no bitwise guarantee.

Gradient semantics: ``backward()`` may be called repeatedly; leaf gradients
accumulate deterministically (each call adds the exact gradient of that
graph), interior gradients are scratch space reset on every call.
"""

from __future__ import annotations

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

    def numpy(self):
        return self.data

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
        """Accumulate gradients of this tensor w.r.t. every reachable leaf.

        Seeds with ones (for a scalar this is d(self)/d(self) = 1). Interior
        node gradients are reset first, so repeated calls add the same leaf
        contribution each time; set a leaf's ``grad`` to None to start over.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no graph attached")
        order = _topo_order(self)
        for node in order:
            if not node.requires_grad:
                continue
            if node._parents or node.grad is None:
                node.grad = np.zeros_like(node.data)
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


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


def _result(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


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
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return _result(data, (a, b), backward)


def add(a, b) -> Tensor:
    """Elementwise sum; shapes must match exactly, or one side is a scalar."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b, "add")
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.grad += g if a.shape == g.shape else g.sum()
        if b.requires_grad:
            b.grad += g if b.shape == g.shape else g.sum()

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product; shapes must match exactly, or one side is a scalar."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b, "mul")
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            ga = g * b.data
            a.grad += ga if a.shape == ga.shape else ga.sum()
        if b.requires_grad:
            gb = g * a.data
            b.grad += gb if b.shape == gb.shape else gb.sum()

    return _result(data, (a, b), backward)


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
        if x.requires_grad:
            inner = (g * y).sum(axis=1, keepdims=True)
            x.grad += y * (g - inner)

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
        if x.requires_grad:
            x.grad += np.repeat(g[None, :] / m, m, axis=0)

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
    widths = [t.shape[-1] for t in xs]

    def backward(g):
        offset = 0
        for t, w in zip(xs, widths):
            if t.requires_grad:
                t.grad += g[..., offset : offset + w]
            offset += w

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
        for i, t in enumerate(xs):
            if t.requires_grad:
                t.grad += g[i]

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
        if x.requires_grad:
            np.add.at(x.grad, idx, g)

    return _result(data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    """Transpose of a 2-D tensor."""
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.shape}")

    def backward(g):
        if x.requires_grad:
            x.grad += g.T

    return _result(x.data.T.copy(), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    """Reshape preserving element count."""
    shape = tuple(shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")

    def backward(g):
        if x.requires_grad:
            x.grad += g.reshape(x.shape)

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
        if x.requires_grad:
            gx = g2 @ w.data.T
            x.grad += gx[0] if vector_in else gx
        if w.requires_grad:
            w.grad += x2.T @ g2
        if b.requires_grad:
            b.grad += g2.sum(axis=0)

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
        if gain.requires_grad:
            gain.grad += (g2 * xhat).sum(axis=0)
        if bias.requires_grad:
            bias.grad += g2.sum(axis=0)
        if x.requires_grad:
            gh = g2 * gain.data[None, :]
            gx = inv * (
                gh
                - gh.mean(axis=1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=1, keepdims=True)
            )
            x.grad += gx[0] if vector_in else gx

    return _result(data, (x, gain, bias), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    y = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x.grad += g * (1.0 - y * y)

    return _result(y, (x,), backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two 1-D tensors of equal length -> scalar."""
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: need equal-length 1-D tensors, got {a.shape} and {b.shape}")
    data = _matmul_data(a.data[None, :], b.data[:, None])[0, 0]

    def backward(g):
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    return _result(data, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements -> scalar."""
    def backward(g):
        if x.requires_grad:
            x.grad += np.full_like(x.data, float(g))

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
        if logits.requires_grad:
            gl = probs * float(g)
            gl[gold] -= float(g)
            logits.grad += gl

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
