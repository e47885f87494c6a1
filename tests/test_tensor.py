"""Tensor core: op semantics, shape errors, and gradients vs central differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from kkt import tensor as T


def make(data, grad=True):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    out = T.matmul(make([[1.0, 0.0], [0.0, 1.0]]), make([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_hand_arithmetic():
    out = T.matmul(make([[1.0, 2.0]]), make([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(make(np.zeros((2, 3))), make(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(0)
    a = make(rng.standard_normal((3, 4)))
    b = make(rng.standard_normal((4, 2)))
    worst = helpers.gradcheck(lambda: T.sum_all(T.matmul(a, b)), [a, b])
    assert worst < 1e-6


def test_matmul_bit_exact_vs_triple_loop():
    # The fp64 kernel must accumulate in plain index order, like the loop does.
    rng = np.random.default_rng(1)
    for m, k, n in [(1, 1, 1), (2, 3, 4), (5, 5, 5), (8, 8, 8), (3, 8, 2), (8, 1, 8)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        ours = T.matmul(make(a, grad=False), make(b, grad=False)).data
        assert ours.tobytes() == helpers.loop_matmul(a, b).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(b=st.integers(1, 4), m=st.integers(1, 6), k=st.integers(1, 6), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_batched_fp64_products_equal_their_slices_bit_for_bit(b, m, k, n, seed):
    # A leading batch axis keeps the sequential accumulation of each slice,
    # also against one 2-D operand broadcast over the batch.
    rng = np.random.default_rng(seed)
    a, c, x = rng.standard_normal((b, m, k)), rng.standard_normal((b, k, n)), rng.standard_normal((m, k))
    got, broadcast = T._matmul_data(a, c), T._matmul_data(x, c)
    assert got.shape == broadcast.shape == (b, m, n)
    for i in range(b):
        assert got[i].tobytes() == T._matmul_data(a[i], c[i]).tobytes()
        assert broadcast[i].tobytes() == helpers.loop_matmul(x, c[i]).tobytes()


def test_matmul_fp32_path_close_to_fp64():
    rng = np.random.default_rng(2)
    a64 = rng.standard_normal((6, 7))
    b64 = rng.standard_normal((7, 3))
    got = T.matmul(
        T.Tensor(a64.astype(np.float32)), T.Tensor(b64.astype(np.float32))
    ).data
    assert got.dtype == np.float32
    assert np.allclose(got, a64 @ b64, atol=1e-4)


# ---------------------------------------------------------------------------
# softmax_rows

def test_softmax_uniform_row():
    out = T.softmax_rows(make([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_stabilized():
    out = T.softmax_rows(make([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] > 1.0 - 1e-12
    assert out.data[0, 1] < 1e-12


def test_softmax_jacobian_vs_fd():
    rng = np.random.default_rng(3)
    x = make(rng.standard_normal((2, 5)))
    # Random reweightings of the output probe the full Jacobian.
    for _ in range(5):
        w = T.Tensor(rng.standard_normal((2, 5)))
        worst = helpers.gradcheck(lambda: T.sum_all(T.mul(T.softmax_rows(x), w)), [x])
        assert worst < 1e-5


def test_softmax_rows_sum_to_one_large_magnitudes():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        scale = rng.choice([1.0, 10.0, 1e2, 1e4])
        x = make(rng.standard_normal((3, 6)) * scale, grad=False)
        out = T.softmax_rows(x).data
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


def with_special_rows(rng, x):
    """x with each row, at random, left as drawn, given repeated maxima,
    made of non-positive values with +-0.0 maxima, given a +inf, or made
    all -inf (whose softmax is NaN)."""
    n = x.shape[-1]
    for row in x.reshape(-1, n):
        kind = rng.integers(5)
        if kind == 1:
            row[rng.integers(n, size=1 + n // 3)] = row.max()
        elif kind == 2:
            row[:] = -np.abs(row)
            row[rng.integers(n, size=1 + n // 2)] = rng.choice([0.0, -0.0], size=1 + n // 2)
        elif kind == 3:
            row[rng.integers(n)] = np.inf
        elif kind == 4:
            row[:] = -np.inf
    return x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lead=st.sampled_from([(), (1, 1), (2, 3), (4, 2)]), rows=st.integers(1, 12), keys=st.integers(1, 80),
       dtype=st.sampled_from([np.float32, np.float64]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**16))
def test_softmax_helpers_keep_the_bits_of_max_and_sum(lead, rows, keys, dtype, scale, seed):
    # The row max is a maximum over the key axis moved first and the sums are
    # np.add.reduce; values and gradients keep the bits of `.max`/`.sum`.
    rng = np.random.default_rng(seed)
    shape = lead + (rows, keys)
    x = with_special_rows(rng, (rng.standard_normal(shape) * scale).astype(dtype))
    g = (rng.standard_normal(shape) * scale).astype(dtype)
    with np.errstate(invalid="ignore"):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        got = T._softmax_rows_data(x)
        want_grad = (g - (g * want).sum(axis=-1, keepdims=True)) * want
        got_grad = T._softmax_rows_grad(want, g)
    assert got.dtype == got_grad.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert got_grad.tobytes() == want_grad.tobytes()


# ---------------------------------------------------------------------------
# row means (a whole matrix is one segment_mean segment) / concat / take

def test_mean_rows_hand_arithmetic():
    assert np.array_equal(T.segment_mean(make([[1.0, 3.0], [3.0, 5.0]]), [2]).data, [[2.0, 4.0]])


segment_lengths = st.one_of(
    st.tuples(st.integers(1, 20), st.integers(1, 5)).map(lambda t: [t[0]] * t[1]),  # equal
    st.lists(st.integers(1, 20), min_size=2, max_size=6),  # mixed
    st.integers(1, 20).map(lambda n: [n]),  # single
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lengths=segment_lengths, cols=st.integers(1, 5), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_segment_mean_rows_equal_mean_rows_of_each_segment_bit_for_bit(lengths, cols, dtype, seed):
    # Segments of one length are reduced as one batch; every row must keep
    # its own segment's reduction, the numpy mean of its rows, over up to 20 rows.
    x = (np.random.default_rng(seed).standard_normal((sum(lengths), cols)) * 1e3).astype(dtype)
    got = T.segment_mean(T.Tensor(x), lengths).data
    edges = np.cumsum([0] + lengths)
    assert got.dtype == dtype and got.shape == (len(lengths), cols)
    for j, (a, b) in enumerate(zip(edges, edges[1:])):
        assert got[j].tobytes() == x[a:b].copy().mean(axis=0).tobytes()


def test_mean_rows_single_row_identity():
    assert np.array_equal(T.segment_mean(make([[7.0, 7.0], [1.0, 2.0]]), [1, 1]).data, [[7.0, 7.0], [1.0, 2.0]])


def test_mean_rows_empty_rejected():
    with pytest.raises(T.ShapeError):
        T.segment_mean(make(np.zeros((0, 3))), [0])


def test_mean_rows_gradient_vs_fd():
    rng = np.random.default_rng(5)
    x = make(rng.standard_normal((4, 3)))
    w = T.Tensor(rng.standard_normal((1, 3)))
    worst = helpers.gradcheck(lambda: T.sum_all(T.mul(T.segment_mean(x, [4]), w)), [x])
    assert worst < 1e-6


def test_concat_last_axis_pairs():
    out = T.concat_last_axis([make([[1.0], [2.0]]), make([[3.0], [4.0]])])
    assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_single_input_identity():
    # One input is returned as it is, so no identity node enters the graph.
    x = make([[1.0, 2.0]])
    assert T.concat_last_axis([x]) is x
    w = make([[3.0], [4.0]])
    T.sum_all(T.matmul(T.concat_last_axis([x]), w)).backward()
    assert np.array_equal(x.grad, [[3.0, 4.0]])
    assert np.array_equal(w.grad, [[1.0], [2.0]])


def test_concat_gradient_splits_back_exactly():
    a = make(np.ones((2, 2)))
    b = make(np.ones((2, 3)))
    T.sum_all(T.concat_last_axis([a, b])).backward()
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_concat_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.concat_last_axis([make(np.zeros((2, 1))), make(np.zeros((3, 1)))])


def test_stack_rows_gradient_vs_fd():
    # Fact vectors are [1, d] rows; refinement stacks them with concat_rows.
    rng = np.random.default_rng(6)
    xs = [make(rng.standard_normal((1, 4))) for _ in range(3)]
    w = T.Tensor(rng.standard_normal((4, 1)))
    worst = helpers.gradcheck(lambda: T.sum_all(T.matmul(T.concat_rows(xs), w)), xs)
    assert worst < 1e-6


def test_take_rows_duplicate_indices_accumulate():
    rng = np.random.default_rng(7)
    x = make(rng.standard_normal((5, 3)))
    w = T.Tensor(rng.standard_normal((4, 3)))
    worst = helpers.gradcheck(lambda: T.sum_all(T.mul(T.take_rows(x, [0, 2, 2, 4]), w)), [x])
    assert worst < 1e-6


row_indices = st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.lists(st.integers(0, n - 1), max_size=16, unique=True).map(sorted),  # strictly increasing
    st.lists(st.integers(0, n - 1), min_size=1, max_size=16).map(lambda a: sorted(a + a[:1])),  # repeated
    st.lists(st.integers(0, n - 1), max_size=16),  # unsorted
)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=row_indices, cols=st.integers(1, 8), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_take_rows_gradient_keeps_the_bits_of_add_at(case, cols, dtype, seed):
    # The gather and its scatter-add back, for every index order, with -0.0
    # and NaN gradient rows: a faster scatter has to keep these bits.
    n, idx = case
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.standard_normal((n, cols)).astype(dtype), requires_grad=True)
    special = rng.choice(np.array([-0.0, 0.0, np.nan, -np.nan], dtype), size=(len(idx), cols))
    g = np.where(rng.random(special.shape) < 0.4, special, rng.standard_normal(special.shape).astype(dtype))
    out = T.take_rows(x, idx)
    assert out.data.tobytes() == x.data[np.asarray(idx, dtype=np.intp)].tobytes()
    out.backward(g)
    want = np.zeros((n, cols), dtype)
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-1, 5])
def test_take_rows_index_out_of_range_names_the_indices(bad):
    x = make(np.arange(10.0).reshape(5, 2), grad=False)
    with pytest.raises(IndexError, match=rf"^take_rows: index out of range for 5 rows: \[0, {bad}, 2\]$"):
        T.take_rows(x, [0, bad, 2])
    with pytest.raises(IndexError, match=rf"^take_rows: index out of range for 5 rows: \[{bad}\]$"):
        T.take_rows(x, np.array([bad]))


def test_take_rows_gathers_the_same_rows_from_any_index_iterable():
    x = make(np.arange(12.0).reshape(6, 2), grad=False)
    kinds = [range(1, 5), [1, 2, 3, 4], np.arange(1, 5), np.arange(1, 5, dtype=np.int32), (i for i in range(1, 5))]
    for indices in kinds:
        assert T.take_rows(x, indices).data.tobytes() == x.data[1:5].tobytes()


def test_take_rows_copies_an_array_index():
    # The backward scatters by the indices of the forward, not by an array the caller has since changed.
    x = make(np.zeros((4, 1)))
    idx = np.array([0, 2])
    out = T.take_rows(x, idx)
    idx[:] = 3
    out.backward(np.ones((2, 1)))
    assert x.grad.ravel().tolist() == [1.0, 0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# cross entropy

def test_cross_entropy_uniform_is_ln3():
    loss = T.cross_entropy_from_logits(make([0.0, 0.0, 0.0]), 0)
    assert abs(loss.item() - math.log(3.0)) < 1e-12


def test_cross_entropy_saturated_near_zero():
    loss = T.cross_entropy_from_logits(make([10.0, -10.0]), 0)
    assert 0.0 <= loss.item() < 1e-8


def test_cross_entropy_gold_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy_from_logits(make([0.0, 0.0]), 2)


def test_cross_entropy_gradient_vs_fd():
    rng = np.random.default_rng(8)
    for gold in range(3):
        x = make(rng.standard_normal(3))
        worst = helpers.gradcheck(lambda: T.cross_entropy_from_logits(x, gold), [x])
        assert worst < 1e-6


# ---------------------------------------------------------------------------
# remaining differentiable ops, finite-difference sweep

def _fd_cases(seed):
    rng = np.random.default_rng(seed)

    def r(*shape):
        return make(rng.standard_normal(shape))

    x, w, b = r(3, 4), r(4, 2), r(2)
    gain, bias = r(4), r(4)
    v1, v2 = r(5), r(5)
    e, xs = r(6, 3), r(2, 3)
    cases = {
        "affine": (lambda: T.sum_all(T.affine(x, w, b)), [x, w, b]),
        "layer_norm": (lambda: T.sum_all(T.layer_norm(x, gain, bias)), [x, gain, bias]),
        "tanh": (lambda: T.sum_all(T.tanh(x)), [x]),
        "add": (lambda: T.sum_all(T.add(v1, v2)), [v1, v2]),
        "mul": (lambda: T.sum_all(T.mul(v1, v2)), [v1, v2]),
        "scalar_add": (lambda: T.sum_all(T.add(v1, 2.5)), [v1]),
        "scalar_mul": (lambda: T.sum_all(T.mul(v1, -1.7)), [v1]),
        "transpose": (lambda: T.sum_all(T.mul(T.transpose(x), T.transpose(x))), [x]),
        "reshape": (lambda: T.sum_all(T.mul(T.reshape(x, (12,)), T.reshape(x, (12,)))), [x]),
        "take_rows": (lambda: T.sum_all(T.take_rows(e, [0, 5, 1])), [e]),
        "softmax": (lambda: T.sum_all(T.mul(T.softmax_rows(xs), xs)), [xs]),
    }
    return cases


@pytest.mark.parametrize("seed", range(5))
def test_fd_sweep_all_ops(seed):
    for name, (loss_fn, leaves) in _fd_cases(seed).items():
        worst = helpers.gradcheck(loss_fn, leaves)
        assert worst < 1e-4, f"{name} gradient off by {worst}"


def test_affine_rejects_rank1_input():
    # A single vector goes in as a [1, n] row.
    w, b = make(np.ones((4, 3))), make(np.zeros(3))
    with pytest.raises(T.ShapeError):
        T.affine(make(np.ones(4)), w, b)
    assert T.affine(make(np.ones((1, 4))), w, b).shape == (1, 3)


def test_layer_norm_rejects_rank1_input():
    gain, bias = make(np.ones(4)), make(np.zeros(4))
    with pytest.raises(T.ShapeError):
        T.layer_norm(make(np.arange(4.0)), gain, bias)
    assert T.layer_norm(make(np.arange(4.0)[None]), gain, bias).shape == (1, 4)


def test_layer_norm_normalizes():
    rng = np.random.default_rng(10)
    x = make(rng.standard_normal((3, 8)) * 4 + 2, grad=False)
    out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-3)


def mean_layer_norm(x, gain, bias, g):
    """`layer_norm`'s output and its x, gain and bias gradients for output
    gradient g, written with numpy's `mean`."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat = (x - mu) * inv
    gh = g * gain[None, :]
    gx = inv * (gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True))
    return xhat * gain[None, :] + bias[None, :], gx, (g * xhat).sum(axis=0), g.sum(axis=0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 64), dtype=st.sampled_from([np.float32, np.float64]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**16))
def test_layer_norm_keeps_the_bits_of_numpy_mean(rows, cols, dtype, scale, seed):
    # The means are sums over the count, without `ndarray.mean`'s wrapper;
    # its forward and its three gradients keep the wrapper's bits.
    rng = np.random.default_rng(seed)
    x, gain, bias, g = ((rng.standard_normal(shape) * scale).astype(dtype)
                        for shape in ((rows, cols), (cols,), (cols,), (rows, cols)))
    leaves = [T.Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    out = T.layer_norm(*leaves)
    out.backward(g)
    got = [out.data] + [t.grad for t in leaves]
    want = mean_layer_norm(x, gain, bias, g)
    assert [a.dtype for a in got] == [dtype] * 4
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ---------------------------------------------------------------------------
# graph mechanics

def test_backward_twice_doubles_leaf_grads():
    # Documented choice: repeated backward accumulates deterministically.
    x = make([1.0, 2.0, 3.0])
    loss = T.sum_all(T.mul(x, x))
    loss.backward()
    once = np.array(x.grad, copy=True)
    loss.backward()
    assert np.array_equal(x.grad, 2.0 * once)


def test_backward_from_a_seed_gradient():
    x = make([[1.0, 2.0], [3.0, 4.0]], grad=True)
    y = T.mul(x, 3.0)
    y.backward(np.array([[1.0, 0.0], [2.0, -1.0]]))
    assert np.array_equal(x.grad, [[3.0, 0.0], [6.0, -3.0]])
    with pytest.raises(T.ShapeError):
        y.backward(np.ones(2))


def test_one_segment_equals_the_unsegmented_ops_bit_for_bit():
    rng = np.random.default_rng(5)
    x = make(rng.standard_normal((4, 6)), grad=True)
    w = [make(rng.standard_normal((2, 6, 3)), grad=True) for _ in range(3)]
    weight = rng.standard_normal((1, 6))

    def run(lengths):
        for t in [x] + w:
            t.grad = None
        pooled = T.segment_mean(T.attention(x, x, x, *w, lengths), [4])
        pooled.backward(weight)
        return [pooled.data.tobytes()] + [t.grad.tobytes() for t in [x] + w]

    assert run([4]) == run(None)


def test_segments_must_cover_the_rows():
    x, w = make(np.ones((3, 2))), make(np.ones((1, 2, 2)))
    for lengths in ([1, 1], [3, 0], [], [2, 2]):
        with pytest.raises(T.ShapeError):
            T.segment_mean(x, lengths)
        with pytest.raises(T.ShapeError):
            T.attention(x, x, x, w, w, w, lengths)


def test_segment_pairs_must_match_and_cover_the_rows():
    q, kv, w = make(np.ones((3, 2))), make(np.ones((4, 2))), make(np.ones((1, 2, 2)))
    for lengths, key_lengths in (
        ([1, 2], [4]),  # two query segments, one key segment
        ([3], [2, 2]),  # one query segment, two key segments
        ([1, 2], [1, 2]),  # key lengths sum to 3 of 4 rows
        ([1, 1], [2, 2]),  # query lengths sum to 2 of 3 rows
        ([1, 2], [4, 0]),  # an empty key segment
        (None, [2, 2]),  # key lengths without query lengths
    ):
        with pytest.raises(T.ShapeError, match="attention"):
            T.attention(q, kv, kv, w, w, w, lengths, key_lengths)
    with pytest.raises(T.ShapeError, match="concat_rows"):
        T.concat_rows([q, make(np.ones((2, 3)))])
    with pytest.raises(T.ShapeError, match="concat_rows"):
        T.concat_rows([])


def test_backward_without_graph_rejected():
    with pytest.raises(ValueError):
        T.Tensor(np.array(1.0)).backward()


def test_diamond_graph_gradient():
    rng = np.random.default_rng(11)
    x = make(rng.standard_normal((3, 3)))
    w = T.Tensor(rng.standard_normal((3, 3)))

    def loss_fn():
        z = T.matmul(x, w)
        return T.add(T.sum_all(z), T.sum_all(T.tanh(z)))

    assert helpers.gradcheck(loss_fn, [x]) < 1e-6


def test_constant_parents_get_no_grad():
    x = make([1.0, 2.0])
    c = T.Tensor(np.array([3.0, 4.0]))  # requires_grad=False
    T.sum_all(T.mul(x, c)).backward()
    assert c.grad is None
    assert np.array_equal(x.grad, [3.0, 4.0])


def _interior_nodes(root):
    return [node for node in T._topo_order(root) if node._parents]


def test_interior_nodes_keep_no_grad():
    rng = np.random.default_rng(13)
    x = make(rng.standard_normal((3, 4)))
    w = make(rng.standard_normal((4, 4)))
    h = T.tanh(T.matmul(x, w))
    loss = T.sum_all(T.add(T.softmax_rows(h), h))
    loss.backward()
    interior = _interior_nodes(loss)
    assert len(interior) == 5
    assert all(node.grad is None for node in interior)
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_add_leaves_do_not_share_a_gradient_array():
    # add passes one output gradient to both parents; each leaf needs its own.
    x = make([1.0, 2.0])
    y = make([3.0, 4.0])
    T.sum_all(T.add(x, y)).backward()
    assert not np.shares_memory(x.grad, y.grad)
    x.grad += 5.0
    assert np.array_equal(y.grad, [1.0, 1.0])


@pytest.mark.parametrize("op, np_op, d_dx", [(T.add, np.add, 1.0), (T.mul, np.multiply, 0.1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_number_operand_is_a_constant_not_a_parent(op, np_op, d_dx, dtype):
    # The number is cast to the tensor's dtype: float32 stays float32.
    x = T.Tensor(np.array([[0.3, -1.1], [2.0, 0.7]], dtype=dtype), requires_grad=True)
    out = op(x, 0.1)
    assert out._parents == (x,)
    assert out.dtype == dtype and np.array_equal(out.data, np_op(x.data, dtype(0.1)))
    T.sum_all(out).backward()
    assert x.grad.dtype == dtype and np.array_equal(x.grad, np.full(x.shape, d_dx, dtype=dtype))


def test_elementwise_broadcasting_rejected():
    with pytest.raises(T.ShapeError):
        T.add(make(np.zeros((2, 3))), make(np.zeros(3)))
    with pytest.raises(T.ShapeError):
        T.mul(make(np.zeros((2, 3))), make(np.zeros((2, 1))))
    # A rank-0 Tensor is a shape like any other.
    with pytest.raises(T.ShapeError):
        T.add(make(np.zeros((2, 3))), make(0.5))
    with pytest.raises(T.ShapeError):
        T.mul(make(np.zeros((2, 3))), make(0.5))


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(12)
    x = make(rng.standard_normal((4, 4)) * 1e3, grad=False)
    for out in (T.softmax_rows(x), T.tanh(x), T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))):
        assert np.all(np.isfinite(out.data))


def test_attention_rejects_mismatched_shapes():
    # Each role's weights are one [h, input width, head width] tensor.
    x, w = make(np.zeros((2, 3))), make(np.zeros((1, 3, 2)))
    w2 = make(np.zeros((2, 3, 2)))
    cases = [
        (x, x, x, *[make(np.zeros((0, 3, 2)))] * 3),  # no heads
        (x, x, x, w, w2, w),  # unequal head counts
        (x, x, x, w2, w2, w),  # value heads fewer than query and key heads
        (x, x, make(np.zeros((3, 3))), w, w, w),  # 2 keys, 3 values
        (make(np.zeros(3)), x, x, w, w, w),  # 1-D queries
        (make(np.zeros((2, 4))), x, x, w, w, w),  # input width 4, projection 3
        (x, x, x, w, make(np.zeros((1, 3, 1))), w),  # query and key head widths
        (x, x, x, make(np.zeros((3, 2))), w, w),  # a rank-2 weight
    ]
    for args in cases:
        with pytest.raises(T.ShapeError, match="attention"):
            T.attention(*args)


# ---------------------------------------------------------------------------
# grad mode

def _every_op(x, w):
    h = T.tanh(T.affine(x, w, T.Tensor(np.zeros(3))))
    return T.sum_all(T.mul(T.softmax_rows(T.matmul(h, T.transpose(h))), 2.0))


def test_no_grad_builds_no_graph():
    rng = np.random.default_rng(21)
    x = make(rng.standard_normal((2, 3)))
    w = make(rng.standard_normal((3, 3)))
    with_graph = _every_op(x, w)
    with T.no_grad():
        assert not T.is_grad_enabled()
        without = _every_op(x, w)
        h = T.matmul(x, w)
    assert T.is_grad_enabled()
    assert np.array_equal(without.data, with_graph.data)
    for out in (without, h):
        assert not out.requires_grad and out._parents == () and out._backward is None
        with pytest.raises(ValueError, match="no graph"):
            out.backward()
    # Leaves keep requires_grad; only op outputs lose their graph.
    assert x.requires_grad and x.grad is None


def test_no_grad_nests_and_restores_the_mode():
    x = make([1.0, 2.0])
    with T.no_grad():
        with T.no_grad():
            assert not T.is_grad_enabled()
        assert not T.is_grad_enabled()
        assert not T.mul(x, x).requires_grad
    assert T.is_grad_enabled() and T.mul(x, x).requires_grad


def test_no_grad_restores_the_mode_after_an_exception():
    with pytest.raises(T.ShapeError):
        with T.no_grad():
            T.matmul(make(np.zeros((2, 3))), make(np.zeros((2, 3))))
    assert T.is_grad_enabled()
    with T.no_grad():
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inner")
        assert not T.is_grad_enabled()
    assert T.is_grad_enabled()


# ---------------------------------------------------------------------------
# parameter init

def test_uniform_param_bounds_and_determinism():
    bound = 1.0 / math.sqrt(16)
    a = T.uniform_param((16, 4), np.random.default_rng(42))
    b = T.uniform_param((16, 4), np.random.default_rng(42))
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad
    assert np.max(np.abs(a.data)) <= bound


def test_uniform_param_fan_in_override():
    # Embedding tables scale by width, not table height.
    t = T.uniform_param((1000, 4), np.random.default_rng(0), fan_in=4)
    assert np.max(np.abs(t.data)) <= 0.5
    assert np.max(np.abs(t.data)) > 1.0 / math.sqrt(1000)


def test_const_param():
    t = T.const_param(1.0, (5,))
    assert np.array_equal(t.data, np.ones(5))
    assert t.requires_grad


# ---------------------------------------------------------------------------
# property tests: every op against central differences on random inputs

def _attention_case(roles):
    """m queries over n keys, (k - 1) % 3 + 1 heads of width 2 on inputs of
    width 3; `roles` picks the input that serves as query, key and value."""
    def case(m, n, k):
        h = (k - 1) % 3 + 1
        seqs = [(m, 3), (n, 3), (n, 3)][: max(roles) + 1]

        def op(*xs):
            w = xs[len(seqs):]
            return T.attention(*(xs[r] for r in roles), *w)

        return seqs + [(h, 3, 2)] * 3, op

    return case


def _segmented_self_attention(m, n, k):
    """Self-attention over two stacked sequences of m and n rows."""
    h = (k - 1) % 3 + 1

    def op(x, *w):
        return T.attention(x, x, x, *w, lengths=[m, n])

    return [(m + n, 3)] + [(h, 3, 2)] * 3, op


def _attention_pairs(m, n, k):
    """Two segment pairs: m then n queries over k then m keys, with
    separate keys and values."""
    h = (k - 1) % 3 + 1

    def op(q, kk, v, *w):
        return T.attention(q, kk, v, *w, [m, n], [k, m])

    return [(m + n, 3), (k + m, 3), (k + m, 3)] + [(h, 3, 2)] * 3, op


# Each case maps the dims (m, n, k), each 1..4, to the input shapes and the op.
OP_CASES = {
    "matmul": lambda m, n, k: ([(m, k), (k, n)], T.matmul),
    "add": lambda m, n, k: ([(m, n), (m, n)], T.add),
    "add_scalar": lambda m, n, k: ([(m, n)], lambda x: T.add(x, 2.5)),
    "mul": lambda m, n, k: ([(m, n), (m, n)], T.mul),
    "mul_scalar": lambda m, n, k: ([(m, n)], lambda x: T.mul(x, -1.7)),
    "mul_same_leaf": lambda m, n, k: ([(m, n)], lambda x: T.mul(x, x)),
    "softmax_rows": lambda m, n, k: ([(m, n)], T.softmax_rows),
    "concat_last_axis": lambda m, n, k: ([(m, n), (m, k)], lambda a, b: T.concat_last_axis([a, b, a])),
    "take_rows": lambda m, n, k: ([(m, n)], lambda x: T.take_rows(x, [m - 1, 0, k % m, m - 1])),
    "transpose": lambda m, n, k: ([(m, n)], T.transpose),
    "reshape": lambda m, n, k: ([(m, n)], lambda x: T.reshape(x, (m * n,))),
    "affine": lambda m, n, k: ([(m, k), (k, n), (n,)], T.affine),
    "layer_norm": lambda m, n, k: ([(m, n + 2), (n + 2,), (n + 2,)], T.layer_norm),
    "tanh": lambda m, n, k: ([(m, n)], T.tanh),
    "sum_all": lambda m, n, k: ([(m, n)], T.sum_all),
    "cross_entropy_from_logits": lambda m, n, k: ([(n,)], lambda z: T.cross_entropy_from_logits(z, k % n)),
    "attention": _attention_case((0, 1, 2)),
    "attention_shared_kv": _attention_case((0, 1, 1)),
    "attention_self": _attention_case((0, 0, 0)),
    "attention_segments": _segmented_self_attention,
    "attention_pairs": _attention_pairs,
    "concat_rows": lambda m, n, k: ([(m, n), (k, n)], lambda a, b: T.concat_rows([a, b, a])),
    "segment_mean": lambda m, n, k: ([(m + n + k, 3)], lambda x: T.segment_mean(x, [m, n, k])),
}

dims = st.integers(min_value=1, max_value=4)


@pytest.mark.parametrize("name", sorted(OP_CASES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(m=dims, n=dims, k=dims, seed=st.integers(min_value=0, max_value=2**32 - 1),
       frozen=st.lists(st.booleans(), min_size=3, max_size=3))
def test_op_gradients_match_central_differences(name, m, n, k, seed, frozen):
    rng = np.random.default_rng(seed)
    shapes, op = OP_CASES[name](m, n, k)
    frozen = frozen[: len(shapes)]
    # Operands past the third (attention's projections) are frozen by the seed.
    frozen += [bool(b) for b in rng.integers(0, 2, size=len(shapes) - len(frozen))]
    frozen[0] = frozen[0] and not all(frozen)
    inputs = [make(rng.standard_normal(shape), grad=not f) for shape, f in zip(shapes, frozen)]
    # A random weighting of the output probes the whole Jacobian.
    weight = T.Tensor(rng.standard_normal(op(*inputs).shape))

    def loss_fn():
        return T.sum_all(T.mul(op(*inputs), weight))

    leaves = [x for x in inputs if x.requires_grad]
    assert helpers.gradcheck(loss_fn, leaves) < 1e-5
    constants = [x for x in inputs if not x.requires_grad]
    assert all(x.grad is None for x in constants)
    loss = loss_fn()
    loss.backward()
    assert all(node.grad is None for node in _interior_nodes(loss))
