"""Autodiff core: op semantics, shape checking, gradients, and the buffers
a taped step runs in."""

import threading
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from eened.config import ModelConfig, TrainConfig
from eened.model import model_forward_batch, model_init
from eened.tensor import (ConfigError, ContractError, ShapeError, Tape,
                          Tensor, add, backward, clip, concat_last,
                          conv1d_depthwise, conv1d_pointwise, dropout,
                          layer_norm, log, matmul, mean_all, mean_axis, mul,
                          neg, recording, reshape, scale, sigmoid, slice_last,
                          softmax_rows, sub, sum_all, swish, transpose_last2)
from eened.train import adam_step, bce_loss, init_adam
from oracle_utils import np_depthwise_triple_loop, np_layer_norm, np_sigmoid

RNG = np.random.default_rng(42)


def rand(*shape):
    return RNG.normal(0.0, 1.0, size=shape)


def numeric_grad(fn, x, h=1e-6):
    """Central differences of a scalar-valued fn at x, coordinate by
    coordinate."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def analytic_grad(op, x, weights):
    """Gradient of mean(op(x) * weights) wrt x via the tape."""
    t = Tensor(x.copy(), requires_grad=True)
    with Tape():
        out = op(t)
        backward(mean_all(mul(out, Tensor(weights))))
    return t.grad


def check_unary_grad(op, x, rtol=1e-6, atol=1e-9):
    w = RNG.normal(size=np.asarray(
        op(Tensor(x.copy())).data).shape)
    got = analytic_grad(op, x, w)
    want = numeric_grad(lambda v: float(np.mean(op(Tensor(v.copy())).data * w)), x.copy())
    assert_allclose(got, want, rtol=rtol, atol=atol)


class TestTensorBasics:
    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_dtype_coercion(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([[3.5]]).item() == 3.5

    def test_operator_sugar(self):
        a = Tensor([1.0, 2.0])
        assert_array_equal((1.0 - a).data, [0.0, -1.0])


class TestShapeChecks:
    def test_add_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_matmul_batch_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_matmul_rank1_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros((2, 3))), (7,))

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            slice_last(Tensor(np.zeros((2, 3))), 1, 5)

    def test_layer_norm_param_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(rand(3, 4), requires_grad=True)
        with Tape():
            backward(sum_all(x))
        assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = Tensor(rand(5), requires_grad=True)
        with Tape():
            backward(sum_all(mul(x, x)))
        assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(3), requires_grad=True)
        with Tape():
            y = mul(x, x)
            with pytest.raises(ContractError):
                backward(y)

    def test_loss_off_tape_rejected(self):
        x = Tensor(rand(1))
        with pytest.raises(ContractError):
            backward(x)

    def test_nested_tape_rejected(self):
        x = Tensor(rand(3), requires_grad=True)
        with Tape() as outer:
            with pytest.raises(ContractError):
                with Tape():
                    pass
            assert recording()  # the rejected tape leaves the outer one on
            assert add(x, x)._tape is outer
        assert not recording()

    def test_only_the_thread_that_entered_a_tape_records_on_it(self):
        # another thread's untaped op put ['leaf', 'swish'] on this tape
        seen = []

        def other():
            seen.append(recording())
            seen.append(swish(Tensor(rand(3)))._tape)
            try:
                with Tape():
                    pass
            except ContractError:
                seen.append("rejected")

        with Tape() as tape:
            runner = threading.Thread(target=other)
            runner.start()
            runner.join(timeout=60)
            assert recording()
        assert not runner.is_alive()
        assert tape.nodes == []
        assert seen == [False, None, "rejected"]

    def test_tape_ends_when_its_block_raises(self):
        x = Tensor(rand(3), requires_grad=True)
        with pytest.raises(KeyError):
            with Tape():
                raise KeyError("inside the step")
        assert not recording()
        assert add(x, x)._tape is None
        with Tape() as tape:
            backward(sum_all(x))
        assert len(tape.nodes) == 2
        assert_array_equal(x.grad, np.ones(3))

    def test_grad_accumulates_across_tapes(self):
        x = Tensor(rand(3), requires_grad=True)
        for _ in range(2):
            with Tape():
                backward(sum_all(x))
        assert_array_equal(x.grad, 2 * np.ones(3))

    def test_no_tape_records_nothing(self):
        x = Tensor(rand(3), requires_grad=True)
        y = add(x, x)
        assert y._tape is None

    def test_a_tape_is_swept_once(self):
        x = Tensor(rand(3), requires_grad=True)
        with Tape():
            loss = sum_all(mul(x, x))
            backward(loss)
            first = x.grad.copy()
            with pytest.raises(ContractError, match="already been swept"):
                backward(loss)
        assert_array_equal(x.grad, first)

    def test_reused_intermediate_accumulates(self):
        x = Tensor(rand(4), requires_grad=True)
        with Tape():
            y = scale(x, 3.0)
            backward(sum_all(add(y, y)))
        assert_allclose(x.grad, np.full(4, 6.0), rtol=1e-12)


class TestBroadcasting:
    def test_add_bias_grad(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        b = Tensor(rand(4), requires_grad=True)
        with Tape():
            backward(sum_all(add(a, b)))
        assert_array_equal(a.grad, np.ones((3, 4)))
        assert_array_equal(b.grad, np.full(4, 3.0))

    def test_mul_scalar_tensor_grad(self):
        a = Tensor(rand(2, 3), requires_grad=True)
        c = Tensor(np.array(2.5), requires_grad=True)
        with Tape():
            backward(sum_all(mul(a, c)))
        assert_allclose(a.grad, np.full((2, 3), 2.5))
        assert_allclose(c.grad, a.data.sum())

    def test_rank3_matmul_matches_einsum(self):
        # batched @ batched, and batched @ weight (one folded GEMM)
        for b_shape, spec in (((2, 4, 5), "bij,bjk->bik"), ((4, 5), "bij,jk->bik")):
            a, b = rand(2, 3, 4), rand(*b_shape)
            got = matmul(Tensor(a), Tensor(b)).data
            assert_allclose(got, np.einsum(spec, a, b), rtol=1e-12)

    def test_rank3_by_rank2_matmul_grad(self):
        a = Tensor(rand(2, 3, 4), requires_grad=True)
        w = Tensor(rand(4, 5), requires_grad=True)
        weights = rand(2, 3, 5)
        with Tape():
            backward(mean_all(mul(matmul(a, w), Tensor(weights))))
        want_w = numeric_grad(
            lambda v: float(np.mean((a.data @ v) * weights)), w.data.copy())
        assert_allclose(w.grad, want_w, rtol=1e-6, atol=1e-9)
        want_a = numeric_grad(
            lambda v: float(np.mean((v @ w.data) * weights)), a.data.copy())
        assert_allclose(a.grad, want_a, rtol=1e-6, atol=1e-9)


class TestUnaryOpGradients:
    @pytest.mark.parametrize("op", [sigmoid, swish, neg,
                                    lambda t: scale(t, -1.7),
                                    softmax_rows,
                                    lambda t: clip(t, -0.5, 0.5),
                                    transpose_last2,
                                    lambda t: reshape(t, (6, 2)),
                                    lambda t: mean_axis(t, 0),
                                    lambda t: mean_axis(t, -1),
                                    lambda t: slice_last(t, 1, 3)])
    def test_against_finite_differences(self, op):
        check_unary_grad(op, rand(3, 4))

    def test_log_grad(self):
        check_unary_grad(log, np.abs(rand(3, 4)) + 0.5)

    def test_sub_grad(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        b = Tensor(rand(4), requires_grad=True)
        with Tape():
            backward(sum_all(sub(a, b)))
        assert_array_equal(a.grad, np.ones((3, 4)))
        assert_array_equal(b.grad, np.full(4, -3.0))

    def test_concat_grad(self):
        a = Tensor(rand(3, 2), requires_grad=True)
        b = Tensor(rand(3, 3), requires_grad=True)
        w = rand(3, 5)
        with Tape():
            backward(mean_all(mul(concat_last([a, b]), Tensor(w))))
        assert_allclose(a.grad, w[:, :2] / 15.0, rtol=1e-12)
        assert_allclose(b.grad, w[:, 2:] / 15.0, rtol=1e-12)


class TestSoftmax:
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 10_000))
    @settings(deadline=None, max_examples=40)
    def test_rows_sum_to_one(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(0, 5, size=(rows, cols))
        y = softmax_rows(Tensor(x)).data
        assert np.all(y >= 0)
        assert_allclose(y.sum(axis=-1), np.ones(rows), atol=1e-9)

    def test_shift_invariance(self):
        x = rand(4, 6)
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + 123.456)).data
        assert_allclose(shifted, base, atol=1e-12)

    def test_extreme_row_matches_arbitrary_precision(self):
        # [1000, 0]: naive exp overflows; the max-shift path must agree with
        # an arbitrary-precision evaluation.
        y = softmax_rows(Tensor(np.array([[1000.0, 0.0]]))).data
        with mpmath.workdps(60):
            e0, e1 = mpmath.exp(1000), mpmath.exp(0)
            want = [float(e0 / (e0 + e1)), float(e1 / (e0 + e1))]
        assert np.all(np.isfinite(y))
        assert_allclose(y[0], want, atol=1e-15)

    def test_softmax_grad_matches_jacobian(self):
        x = rand(2, 5)
        w = rand(2, 5)
        got = analytic_grad(softmax_rows, x, w)
        want = numeric_grad(
            lambda v: float(np.mean(softmax_rows(Tensor(v.copy())).data * w)),
            x.copy())
        assert_allclose(got, want, rtol=1e-6, atol=1e-10)


class TestLayerNorm:
    @given(st.integers(1, 5), st.integers(2, 16), st.integers(0, 10_000))
    @settings(deadline=None, max_examples=40)
    def test_unit_stats(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(3.0, 50.0, size=(rows, cols))
        y = layer_norm(Tensor(x), Tensor(np.ones(cols)), Tensor(np.zeros(cols))).data
        assert np.all(np.abs(y.mean(axis=-1)) < 1e-9)
        # eps=1e-5 shrinks the output variance by var/(var+eps); the 1e-6
        # bound applies to rows whose variance dwarfs eps
        big = x.var(axis=-1) > 100.0
        deviation = np.abs(y.var(axis=-1) - 1.0)
        assert np.all(deviation[big] < 1e-6)
        assert np.all(deviation < 1e-2)

    def test_all_inputs_grad(self):
        x = Tensor(rand(3, 6), requires_grad=True)
        gamma = Tensor(rand(6) + 2.0, requires_grad=True)
        beta = Tensor(rand(6), requires_grad=True)
        w = rand(3, 6)
        with Tape():
            backward(mean_all(mul(layer_norm(x, gamma, beta), Tensor(w))))
        for t in (x, gamma, beta):
            want = numeric_grad(
                lambda v, t=t: float(np.mean(
                    layer_norm(Tensor(x.data.copy() if t is not x else v.copy()),
                               Tensor(gamma.data.copy() if t is not gamma else v.copy()),
                               Tensor(beta.data.copy() if t is not beta else v.copy())
                               ).data * w)),
                t.data.copy())
            assert_allclose(t.grad, want, rtol=1e-5, atol=1e-9)


class TestConvOps:
    def test_pointwise_equals_per_timestep_affine(self):
        x, w, b = rand(7, 4), rand(4, 9), rand(9)
        got = conv1d_pointwise(Tensor(x), Tensor(w), Tensor(b)).data
        want = np.stack([x[t] @ w + b for t in range(7)])
        assert_allclose(got, want, rtol=1e-12)

    def test_pointwise_shape_errors(self):
        with pytest.raises(ShapeError):
            conv1d_pointwise(Tensor(rand(7, 4)), Tensor(rand(5, 9)), Tensor(rand(9)))
        with pytest.raises(ShapeError):
            conv1d_pointwise(Tensor(rand(7, 4)), Tensor(rand(4, 9)), Tensor(rand(8)))

    @given(st.integers(1, 32), st.integers(1, 8), st.sampled_from([3, 15]),
           st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_depthwise_equals_triple_loop(self, t, c, k, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(t, c))
        kern = r.normal(size=(c, k))
        b = r.normal(size=c)
        got = conv1d_depthwise(Tensor(x), Tensor(kern), Tensor(b)).data
        want = np_depthwise_triple_loop(x, kern, b, (k - 1) // 2)
        assert_array_equal(got, want)

    def test_depthwise_batched_matches_per_sample(self):
        x = rand(3, 10, 4)
        kern, b = rand(4, 5), rand(4)
        got = conv1d_depthwise(Tensor(x), Tensor(kern), Tensor(b)).data
        for i in range(3):
            assert_array_equal(
                got[i], conv1d_depthwise(Tensor(x[i]), Tensor(kern), Tensor(b)).data)

    def test_depthwise_even_kernel(self):
        with pytest.raises(ConfigError):
            conv1d_depthwise(Tensor(rand(8, 3)), Tensor(rand(3, 4)), Tensor(rand(3)))

    def test_depthwise_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_depthwise(Tensor(rand(8, 3)), Tensor(rand(4, 5)), Tensor(rand(4)))

    def test_depthwise_grads(self):
        x = Tensor(rand(6, 3), requires_grad=True)
        kern = Tensor(rand(3, 5), requires_grad=True)
        b = Tensor(rand(3), requires_grad=True)
        w = rand(6, 3)
        with Tape():
            backward(mean_all(mul(conv1d_depthwise(x, kern, b), Tensor(w))))
        for t in (x, kern, b):
            def f(v, t=t):
                args = [x.data, kern.data, b.data]
                args[(x, kern, b).index(t)] = v
                return float(np.mean(
                    conv1d_depthwise(Tensor(args[0].copy()), Tensor(args[1].copy()),
                                     Tensor(args[2].copy())).data * w))
            assert_allclose(t.grad, numeric_grad(f, t.data.copy()),
                            rtol=1e-6, atol=1e-9)


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(rand(4, 4))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x
        assert dropout(x, 0.0) is x

    def test_eval_mode_is_identity(self):
        x = Tensor(rand(4, 4))
        assert dropout(x, 0.7) is x

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(rand(2)), 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            dropout(Tensor(rand(2)), -0.1, np.random.default_rng(0))

    def test_statistics(self):
        x = Tensor(np.full((100_000,), 3.0))
        y = dropout(x, 0.5, np.random.default_rng(7)).data
        zero_fraction = np.mean(y == 0.0)
        assert abs(zero_fraction - 0.5) < 0.01
        assert abs(y.mean() - 3.0) / 3.0 < 0.02

    def test_gradient_matches_mask(self):
        x = Tensor(rand(50), requires_grad=True)
        with Tape():
            y = dropout(x, 0.4, np.random.default_rng(3))
            backward(sum_all(y))
        mask = y.data != 0.0
        expected = np.where(mask, 1.0 / 0.6, 0.0)
        # surviving zeros in x would break the mask reconstruction; none here
        assert np.all(x.data != 0.0)
        assert_allclose(x.grad, expected, rtol=1e-12)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_values_as_a_float_factor(self, dtype):
        # the mask is a bool array times 1/(1-p); the draw is the same
        # rng.random(shape) as when the mask was a float factor array
        x = rand(40, 30).astype(dtype)
        x[0, :4] = [0.0, -0.0, -1.5, 2.5]
        p = 0.1
        factor = (np.random.default_rng(9).random(x.shape) >= p).astype(dtype) / (1.0 - p)
        g = rand(40, 30).astype(dtype)
        t = Tensor(x, requires_grad=True)
        with Tape():
            y = dropout(t, p, np.random.default_rng(9))
            backward(sum_all(mul(y, Tensor(g))))
        assert_array_equal(y.data, x * factor)
        assert_array_equal(np.signbit(y.data), np.signbit(x * factor))
        assert_array_equal(t.grad, g * factor)

    def test_tape_keeps_a_bool_mask(self):
        with Tape() as tape:
            dropout(Tensor(rand(20, 30)), 0.3, np.random.default_rng(1))
        saved = [c.cell_contents for c in tape.nodes[-1].backward.__closure__]
        arrays = [v for v in saved if isinstance(v, np.ndarray)]
        assert [a.dtype for a in arrays] == [np.bool_]


class TestClip:
    def test_values_and_grad_mask(self):
        x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), requires_grad=True)
        with Tape():
            y = clip(x, -1.0, 1.0)
            backward(sum_all(y))
        assert_array_equal(y.data, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


class TestFloat32Kernels:
    def test_dtype_saturation_and_precision(self):
        x = RNG.normal(0.0, 3.0, size=(2, 5, 8)).astype(np.float32)
        gamma, beta = np.ones(8, np.float32), np.zeros(8, np.float32)
        # a silent upcast to float64 would double the memory traffic
        for y in (sigmoid(Tensor(x)), swish(Tensor(x)), softmax_rows(Tensor(x)),
                  layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))):
            assert y.dtype == np.float32

        big = np.array([-1e4, -100.0, 100.0, 1e4], dtype=np.float32)
        with np.errstate(over="raise", invalid="raise"):
            s = sigmoid(Tensor(big)).data
            w = swish(Tensor(big)).data
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(w))
        assert np.all((s >= 0.0) & (s <= 1.0))

        grid = np.linspace(-40.0, 40.0, 1601).astype(np.float32)
        got = sigmoid(Tensor(grid)).data
        with mpmath.workdps(40):
            want = [float(1 / (1 + mpmath.exp(-mpmath.mpf(float(v))))) for v in grid]
        assert_allclose(got, want, rtol=0, atol=1e-7)


# ---------------------------------------------------------------------------
# step buffers: release during the sweep, summed fan-out gradients
# ---------------------------------------------------------------------------

DESK_MODEL = dict(d_model=64, n_heads=4, n_blocks=2, d_pwff=256,
                  conv_kernel=15, dropout_p=0.1, t_in=178,
                  classifier_hidden=128)


class DeskSteps:
    """Taped desk-model training steps (forward, bce_loss, backward, Adam)
    on seeded random segments."""

    def __init__(self, batch, seed):
        self.model = model_init(ModelConfig(seed=seed, **DESK_MODEL))
        self.adam = init_adam(self.model.params)
        self.tcfg = TrainConfig(seed=seed, batch_size=batch)
        r = np.random.default_rng(seed)
        self.x = r.normal(size=(batch, DESK_MODEL["t_in"])).astype(np.float32)
        self.y = (r.random(batch) < 0.2).astype(np.int64)
        self.rng = np.random.Generator(np.random.Philox(seed))

    def step(self) -> float:
        m = self.model
        m.params.zero_grad()
        with Tape():
            p = model_forward_batch(m, Tensor(self.x), training=True, rng=self.rng)
            loss = bce_loss(p, self.y)
            backward(loss)
        adam_step(m.params, self.adam, self.tcfg)
        return loss.item()


class TestStepBuffers:
    def test_swept_node_releases_its_forward_arrays(self):
        x = Tensor(rand(8, 64, 64).astype(np.float32), requires_grad=True)
        w = Tensor(rand(64, 256).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            h = matmul(x, w)
            released = weakref.ref(h.data)  # then held by swish's closure only
            y = swish(h)
            del h
            backward(mean_all(y))
            assert len(tape.nodes) == 5  # the tape is alive, its arrays are not
            assert released() is None

    def test_a_finished_step_holds_no_step_buffers(self):
        tracemalloc.start()
        try:
            steps = DeskSteps(batch=8, seed=4)
            param_bytes = sum(t.data.nbytes for _, t in steps.model.params.items())
            baseline = tracemalloc.get_traced_memory()[0]
            held = []
            for _ in range(2):
                steps.step()
                held.append(tracemalloc.get_traced_memory()[0] - baseline)
        finally:
            tracemalloc.stop()
        # what stays is the parameter gradients and small bookkeeping
        assert max(held) <= 2 * param_bytes, (held, param_bytes)

    def test_losses_do_not_depend_on_steps_run_in_between(self):
        steps = DeskSteps(batch=32, seed=5)
        alone = [steps.step() for _ in range(8)]

        steps, other = DeskSteps(batch=32, seed=5), DeskSteps(batch=7, seed=7)
        interleaved = []
        for _ in range(8):
            other.step()
            interleaved.append(steps.step())
        assert interleaved == alone


def np_swish_grad(x):
    s = np_sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


class TestFanOutAccumulation:
    """Gradients summed from several consumers, against float64 oracles."""

    def test_add_of_one_operand_twice(self):
        x = Tensor(rand(8, 64, 64).astype(np.float32), requires_grad=True)
        w = rand(8, 64, 64).astype(np.float32)
        with Tape():
            y = swish(x)
            backward(mean_all(mul(add(y, y), Tensor(w))))
        want = 2.0 * w.astype(np.float64) / w.size * np_swish_grad(x.data.astype(np.float64))
        assert_allclose(x.grad, want, rtol=1e-5, atol=1e-10)

    def test_operands_of_one_add_keep_their_own_gradients(self):
        # add hands the same g array to a and b; summing a's later second
        # term must leave the gradient b received as it was
        x1 = Tensor(rand(8, 64, 64).astype(np.float32), requires_grad=True)
        x2 = Tensor(rand(8, 64, 64).astype(np.float32), requires_grad=True)
        w = rand(8, 64, 64).astype(np.float32)
        with Tape():
            a, b = swish(x1), swish(x2)
            t = scale(a, 3.0)
            s = add(a, b)
            backward(mean_all(mul(add(s, t), Tensor(w))))
        wn = w.astype(np.float64) / w.size
        assert_allclose(x1.grad, 4.0 * wn * np_swish_grad(x1.data.astype(np.float64)),
                        rtol=1e-5, atol=1e-10)
        assert_allclose(x2.grad, wn * np_swish_grad(x2.data.astype(np.float64)),
                        rtol=1e-5, atol=1e-10)

    def test_normalized_input_feeding_several_projections(self):
        x = Tensor(rand(8, 64, 64).astype(np.float32), requires_grad=True)
        gamma = Tensor(1.0 + rand(64).astype(np.float32), requires_grad=True)
        beta = Tensor(rand(64).astype(np.float32), requires_grad=True)
        ws = [Tensor(0.2 * rand(64, 32).astype(np.float32), requires_grad=True)
              for _ in range(3)]
        w = rand(8, 64, 32).astype(np.float32)
        with Tape():
            xn = layer_norm(x, gamma, beta)
            q, k, v = (matmul(xn, wp) for wp in ws)
            backward(mean_all(mul(add(add(q, k), v), Tensor(w))))

        f64 = [t.data.astype(np.float64) for t in (x, gamma, beta, *ws)]
        xd, gd, bd, wq, wk, wv = f64
        wn = w.astype(np.float64) / w.size
        xn64 = np_layer_norm(xd, gd, bd)
        gxn = wn @ wq.T + wn @ wk.T + wn @ wv.T
        mu = xd.mean(axis=-1, keepdims=True)
        sd = np.sqrt(((xd - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = (xd - mu) / sd
        gxhat = gxn * gd
        want_x = (gxhat - gxhat.mean(axis=-1, keepdims=True)
                  - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)) / sd
        assert_allclose(x.grad, want_x, rtol=1e-4, atol=1e-10)
        assert_allclose(gamma.grad, (gxn * xhat).sum(axis=(0, 1)), rtol=1e-4, atol=1e-9)
        assert_allclose(beta.grad, gxn.sum(axis=(0, 1)), rtol=1e-4, atol=1e-9)
        want_w = xn64.reshape(-1, 64).T @ wn.reshape(-1, 32)
        for wp in ws:
            assert_allclose(wp.grad, want_w, rtol=1e-4, atol=1e-9)


# One case per op, taped against untaped: (function of tensors, input shapes).
TAPED_OP_CASES = {
    "add": (add, [(8, 64, 64), (64,)]),
    "mul": (mul, [(8, 64, 64), (8, 64, 64)]),
    "scale": (lambda a: scale(a, -0.7), [(8, 64, 64)]),
    "matmul_weight": (matmul, [(8, 64, 64), (64, 96)]),
    "matmul_batched": (lambda a, b: matmul(a, transpose_last2(b)),
                       [(8, 64, 40), (8, 64, 40)]),
    "concat": (lambda a, b: concat_last([a, b]), [(8, 64, 40), (8, 64, 48)]),
    "slice": (lambda a: slice_last(a, 16, 80), [(8, 64, 96)]),
    "mean_axis": (lambda a: mean_axis(a, 1), [(8, 64, 64)]),
    "sigmoid": (sigmoid, [(8, 64, 64)]),
    "swish": (swish, [(8, 64, 64)]),
    "softmax": (softmax_rows, [(8, 64, 64)]),
    "layer_norm": (layer_norm, [(8, 64, 64), (64,), (64,)]),
    "conv1d_depthwise": (conv1d_depthwise, [(8, 64, 64), (64, 15), (64,)]),
    "dropout": (lambda x: dropout(x, 0.25, np.random.default_rng(5)),
                [(8, 64, 64)]),
}


@pytest.mark.parametrize("name", sorted(TAPED_OP_CASES))
def test_taped_op_matches_untaped_forward_and_float64_gradient(name):
    """Each op taped: the forward equals the untaped one bitwise, and the
    gradient matches the float64 forward's central differences."""
    fn, shapes = TAPED_OP_CASES[name]
    r = np.random.default_rng(sorted(TAPED_OP_CASES).index(name))
    inputs = [r.normal(size=s).astype(np.float32) for s in shapes]
    untaped = fn(*(Tensor(a) for a in inputs)).data
    w = r.normal(size=untaped.shape).astype(np.float32)

    ts = [Tensor(a, requires_grad=True) for a in inputs]
    with Tape():
        out = fn(*ts)
        backward(mean_all(mul(out, Tensor(w))))
    grads = [t.grad for t in ts]
    assert_array_equal(out.data, untaped)

    # oracle: the float64 untaped forward's derivative along random
    # directions, by central differences
    w64 = w.astype(np.float64)
    for _ in range(2):
        dirs = [r.normal(size=s) for s in shapes]

        def loss(eps):
            moved = [Tensor(a.astype(np.float64) + eps * d) for a, d in zip(inputs, dirs)]
            return float(np.mean(fn(*moved).data * w64))

        h = 1e-5
        want = (loss(h) - loss(-h)) / (2 * h)
        got = sum(float(np.sum(g.astype(np.float64) * d)) for g, d in zip(grads, dirs))
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-4 * abs(want) + 1e-9, (got, want)
