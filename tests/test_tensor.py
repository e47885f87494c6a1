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


# ---------------------------------------------------------------------------
# mean_rows / concat / stack / take

def test_mean_rows_hand_arithmetic():
    assert np.array_equal(T.mean_rows(make([[1.0, 3.0], [3.0, 5.0]])).data, [2.0, 4.0])


def test_mean_rows_single_row_identity():
    assert np.array_equal(T.mean_rows(make([[7.0, 7.0]])).data, [7.0, 7.0])


def test_mean_rows_empty_rejected():
    with pytest.raises(T.ShapeError):
        T.mean_rows(make(np.zeros((0, 3))))


def test_mean_rows_gradient_vs_fd():
    rng = np.random.default_rng(5)
    x = make(rng.standard_normal((4, 3)))
    w = T.Tensor(rng.standard_normal(3))
    worst = helpers.gradcheck(lambda: T.dot(T.mean_rows(x), w), [x])
    assert worst < 1e-6


def test_concat_last_axis_pairs():
    out = T.concat_last_axis([make([[1.0], [2.0]]), make([[3.0], [4.0]])])
    assert np.array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_single_input_identity():
    x = make([[1.0, 2.0]])
    assert np.array_equal(T.concat_last_axis([x]).data, x.data)


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
    rng = np.random.default_rng(6)
    xs = [make(rng.standard_normal(4)) for _ in range(3)]
    w = T.Tensor(rng.standard_normal((4, 1)))
    worst = helpers.gradcheck(lambda: T.sum_all(T.matmul(T.stack_rows(xs), w)), xs)
    assert worst < 1e-6


def test_take_rows_duplicate_indices_accumulate():
    rng = np.random.default_rng(7)
    x = make(rng.standard_normal((5, 3)))
    w = T.Tensor(rng.standard_normal(3))
    worst = helpers.gradcheck(
        lambda: T.dot(T.mean_rows(T.take_rows(x, [0, 2, 2, 4])), w), [x]
    )
    assert worst < 1e-6


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
        "dot": (lambda: T.dot(v1, v2), [v1, v2]),
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


def test_affine_rank1_gradient():
    rng = np.random.default_rng(9)
    x = make(rng.standard_normal(4))
    w = make(rng.standard_normal((4, 3)))
    b = make(rng.standard_normal(3))
    worst = helpers.gradcheck(lambda: T.sum_all(T.affine(x, w, b)), [x, w, b])
    assert worst < 1e-6


def test_layer_norm_normalizes():
    rng = np.random.default_rng(10)
    x = make(rng.standard_normal((3, 8)) * 4 + 2, grad=False)
    out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-3)


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


def test_scalar_operand_gets_summed_gradient():
    rng = np.random.default_rng(14)
    x = make(rng.standard_normal((2, 3)))
    w = T.Tensor(rng.standard_normal((2, 3)))
    s_add = make(0.5)
    s_mul = make(-1.5)
    T.sum_all(T.mul(T.add(x, s_add), w)).backward()
    assert s_add.grad.shape == () and s_add.grad == w.data.sum()
    T.sum_all(T.mul(T.mul(s_mul, x), w)).backward()
    assert s_mul.grad.shape == () and s_mul.grad == (w.data * x.data).sum()


@pytest.mark.parametrize("op, np_op, d_dx", [(T.add, np.add, 1.0), (T.mul, np.multiply, 0.1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_number_operand_is_a_constant_not_a_parent(op, np_op, d_dx, dtype):
    # The number is cast to the tensor's dtype: float32 stays float32.
    x = T.Tensor(np.array([[0.3, -1.1], [2.0, 0.7]], dtype=dtype), requires_grad=True)
    want = np_op(x.data, dtype(0.1))
    for out in (op(x, 0.1), op(0.1, x)):
        assert out._parents == (x,)
        assert out.dtype == dtype and np.array_equal(out.data, want)
    T.sum_all(op(0.1, x)).backward()
    assert x.grad.dtype == dtype and np.array_equal(x.grad, np.full(x.shape, d_dx, dtype=dtype))


def test_number_operand_against_a_rank_zero_tensor_sums_its_gradient():
    s = make(2.0)
    out = T.mul(s, np.array([1.0, 3.0]))
    assert out._parents == (s,) and np.array_equal(out.data, [2.0, 6.0])
    T.sum_all(out).backward()
    assert s.grad == 4.0


def test_elementwise_broadcasting_rejected():
    with pytest.raises(T.ShapeError):
        T.add(make(np.zeros((2, 3))), make(np.zeros(3)))
    with pytest.raises(T.ShapeError):
        T.mul(make(np.zeros((2, 3))), make(np.zeros((2, 1))))


def test_operator_sugar_matches_functions():
    a = make([1.0, -2.0])
    b = make([3.0, 5.0])
    assert np.array_equal((a + b).data, [4.0, 3.0])
    assert np.array_equal((a * b).data, [3.0, -10.0])
    assert np.array_equal((a - b).data, [-2.0, -7.0])
    assert np.array_equal((-a).data, [-1.0, 2.0])
    assert np.array_equal((1.0 - a).data, [0.0, 3.0])
    assert np.array_equal((a - 1.0).data, [0.0, -3.0])
    assert np.array_equal((2.0 * a).data, [2.0, -4.0])


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(12)
    x = make(rng.standard_normal((4, 4)) * 1e3, grad=False)
    for out in (T.softmax_rows(x), T.tanh(x), T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))):
        assert np.all(np.isfinite(out.data))


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

# Each case maps the dims (m, n, k), each 1..4, to the input shapes and the op.
OP_CASES = {
    "matmul": lambda m, n, k: ([(m, k), (k, n)], T.matmul),
    "add": lambda m, n, k: ([(m, n), (m, n)], T.add),
    "add_scalar": lambda m, n, k: ([(m, n), ()], T.add),
    "mul": lambda m, n, k: ([(m, n), (m, n)], T.mul),
    "mul_scalar": lambda m, n, k: ([(), (m, n)], T.mul),
    "mul_same_leaf": lambda m, n, k: ([(m, n)], lambda x: T.mul(x, x)),
    "softmax_rows": lambda m, n, k: ([(m, n)], T.softmax_rows),
    "mean_rows": lambda m, n, k: ([(m, n)], T.mean_rows),
    "concat_last_axis": lambda m, n, k: ([(m, n), (m, k)], lambda a, b: T.concat_last_axis([a, b, a])),
    "stack_rows": lambda m, n, k: ([(n,), (n,), (n,)], lambda *xs: T.stack_rows(xs)),
    "take_rows": lambda m, n, k: ([(m, n)], lambda x: T.take_rows(x, [m - 1, 0, k % m, m - 1])),
    "transpose": lambda m, n, k: ([(m, n)], T.transpose),
    "reshape": lambda m, n, k: ([(m, n)], lambda x: T.reshape(x, (m * n,))),
    "affine": lambda m, n, k: ([(m, k), (k, n), (n,)], T.affine),
    "affine_vector": lambda m, n, k: ([(k,), (k, n), (n,)], T.affine),
    "layer_norm": lambda m, n, k: ([(m, n + 2), (n + 2,), (n + 2,)], T.layer_norm),
    "layer_norm_vector": lambda m, n, k: ([(n + 2,), (n + 2,), (n + 2,)], T.layer_norm),
    "tanh": lambda m, n, k: ([(m, n)], T.tanh),
    "dot": lambda m, n, k: ([(n,), (n,)], T.dot),
    "sum_all": lambda m, n, k: ([(m, n)], T.sum_all),
    "cross_entropy_from_logits": lambda m, n, k: ([(n,)], lambda z: T.cross_entropy_from_logits(z, k % n)),
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
