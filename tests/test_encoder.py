"""Encoder sub-modules: reference-oracle fidelity, structural properties,
and gradients."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eened.config import ModelConfig
from eened.encoder import (_attention, conv_module_forward, conv_module_init,
                           encoder_block_forward, encoder_block_init,
                           mhsa_forward, mhsa_init, pwff_forward, pwff_init)
from eened.rng import SeedStream
from eened.tensor import LN_EPS, Tensor, layer_norm
from eened.train import gradcheck_suite
from oracle_utils import (np_conv_module, np_encoder_block, np_mhsa, np_pwff,
                          np_swish)


def small_cfg(**overrides):
    base = dict(d_model=8, n_blocks=1, n_heads=2, conv_kernel=15, d_pwff=16,
                dropout_p=0.0, t_in=16, classifier_hidden=8, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def rand_x(t, d, seed=0):
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(t, d))


def attention_matrices(x, p, cfg):
    """Each head's attention matrix A_h, as the forward scores it."""
    xn = layer_norm(Tensor(x), p.ln_gamma, p.ln_beta)
    return [_attention(xn, qh, kh, cfg).data for qh, kh in zip(p.q, p.k)]


CFG = small_cfg()


@pytest.fixture
def pwff():
    return pwff_init(SeedStream(11).child("pwff"), CFG.d_model, CFG.d_pwff, np.float64)


@pytest.fixture
def mhsa():
    return mhsa_init(SeedStream(12).child("mhsa"), CFG.d_model, CFG.n_heads,
                     np.float64)


@pytest.fixture
def conv():
    return conv_module_init(SeedStream(13).child("conv"), CFG.d_model,
                            CFG.conv_kernel, np.float64)


@pytest.fixture
def block():
    return encoder_block_init(SeedStream(14).child("block"), CFG, np.float64)


class TestReferenceOracles:
    """Each forward matches an independent dense transcription of its
    definition on random inputs, to 1e-10 in float64."""

    def test_pwff_matches_dense_oracle(self, pwff):
        x = rand_x(7, CFG.d_model, seed=1)
        got = pwff_forward(Tensor(x), pwff, CFG).data
        assert_allclose(got, np_pwff(x, pwff), atol=1e-10, rtol=0)

    def test_mhsa_matches_dense_oracle(self, mhsa):
        x = rand_x(6, CFG.d_model, seed=2)
        got = mhsa_forward(Tensor(x), mhsa, CFG).data
        assert_allclose(got, np_mhsa(x, mhsa, CFG.d_model, CFG.n_heads),
                        atol=1e-10, rtol=0)

    def test_mhsa_small_handset_case(self):
        # 3 timesteps, 4 channels, 2 heads: same dense evaluation at a size
        # where every intermediate is inspectable by hand
        cfg = small_cfg(d_model=4, n_heads=2, d_pwff=4)
        p = mhsa_init(SeedStream(77).child("m"), 4, 2, np.float64)
        x = rand_x(3, 4, seed=3)
        got = mhsa_forward(Tensor(x), p, cfg).data
        assert_allclose(got, np_mhsa(x, p, 4, 2), atol=1e-10, rtol=0)

    def test_conv_module_matches_dense_oracle(self, conv):
        x = rand_x(9, CFG.d_model, seed=4)
        got = conv_module_forward(Tensor(x), conv, CFG).data
        assert_allclose(got, np_conv_module(x, conv, (CFG.conv_kernel - 1) // 2),
                        atol=1e-10, rtol=0)

    def test_block_matches_dense_oracle(self, block):
        x = rand_x(5, CFG.d_model, seed=5)
        got = encoder_block_forward(Tensor(x), block, CFG).data
        want = np_encoder_block(x, block, CFG.d_model, CFG.n_heads,
                                (CFG.conv_kernel - 1) // 2)
        assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_batched_forward_matches_per_sample(self, block):
        xb = np.random.default_rng(6).normal(size=(3, 5, CFG.d_model))
        got = encoder_block_forward(Tensor(xb), block, CFG).data
        for i in range(3):
            single = encoder_block_forward(Tensor(xb[i]), block, CFG).data
            assert_allclose(got[i], single, atol=1e-12, rtol=0)


class TestManualForwardOracles:
    """Tiny hand-set configurations evaluated scalar by scalar in the test."""

    def test_pwff_single_timestep_by_hand(self):
        cfg = small_cfg(d_model=2, n_heads=1, d_pwff=2)
        p = pwff_init(SeedStream(0).child("p"), 2, 2, np.float64)
        p.w1.data[...] = [[0.5, -1.0], [0.25, 2.0]]
        p.b1.data[...] = [0.1, -0.2]
        p.w2.data[...] = [[1.5, -0.5], [0.3, 0.8]]
        p.b2.data[...] = [0.05, -0.1]
        x = np.array([[1.0, 3.0]])
        # normalize: mean 2, variance 1
        c = 1.0 / math.sqrt(1.0 + LN_EPS)
        xn = [-c, c]
        z = [xn[0] * 0.5 + xn[1] * 0.25 + 0.1, xn[0] * -1.0 + xn[1] * 2.0 - 0.2]
        s = [v / (1.0 + math.exp(-v)) for v in z]
        branch = [s[0] * 1.5 + s[1] * 0.3 + 0.05, s[0] * -0.5 + s[1] * 0.8 - 0.1]
        want = [1.0 + 0.5 * branch[0], 3.0 + 0.5 * branch[1]]
        got = pwff_forward(Tensor(x), p, cfg).data
        assert_allclose(got, [want], atol=1e-12, rtol=0)

    def test_mhsa_single_timestep(self):
        # T=1: each attention matrix is [[1]], so the output row is the
        # concatenated value projections through the output matrix
        cfg = small_cfg(d_model=4, n_heads=2, d_pwff=4)
        p = mhsa_init(SeedStream(5).child("m"), 4, 2, np.float64)
        x = rand_x(1, 4, seed=8)
        for a in attention_matrices(x, p, cfg):
            assert_array_equal(a, [[1.0]])
        mu = x.mean()
        xn = (x - mu) / math.sqrt(x.var() + LN_EPS)
        want = np.concatenate([xn @ p.v[0].data, xn @ p.v[1].data], axis=-1) @ p.o.data
        assert_allclose(mhsa_forward(Tensor(x), p, cfg).data, want,
                        atol=1e-12, rtol=0)

    def test_mhsa_zero_values(self, mhsa):
        for vh in mhsa.v:
            vh.data[...] = 0.0
        x = rand_x(6, CFG.d_model, seed=9)
        assert_array_equal(mhsa_forward(Tensor(x), mhsa, CFG).data,
                           np.zeros((6, CFG.d_model)))

    def test_conv_module_delta_kernel_by_hand(self):
        # a centered delta kernel makes the depthwise stage an identity plus
        # bias, leaving only affine maps, the gate, and the activation
        cfg = small_cfg(d_model=2, n_heads=1, d_pwff=2, conv_kernel=3)
        p = conv_module_init(SeedStream(4).child("c"), 2, 3, np.float64)
        rng = np.random.default_rng(10)
        for t in (p.pw1_w, p.glu_w1, p.glu_w2, p.proj_w):
            t.data[...] = rng.normal(0.0, 0.5, size=t.shape)
        p.pw1_b.data[...] = [0.1, -0.1, 0.2, -0.2]
        p.glu_b1.data[...] = [0.3, -0.3]
        p.glu_b2.data[...] = [0.05, -0.05]
        p.dw_kernel.data[...] = [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        p.dw_bias.data[...] = [0.01, -0.02]
        p.proj_b.data[...] = [0.002, 0.003]
        x = rand_x(4, 2, seed=11)
        xn = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + LN_EPS)
        h = xn @ p.pw1_w.data + p.pw1_b.data
        glu = (h[:, :2] @ p.glu_w1.data + p.glu_b1.data) * (
            1.0 / (1.0 + np.exp(-(h[:, 2:] @ p.glu_w2.data + p.glu_b2.data))))
        dw = glu + p.dw_bias.data
        want = x + (np_swish(dw) @ p.proj_w.data + p.proj_b.data)
        got = conv_module_forward(Tensor(x), p, cfg).data
        assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_glu_gate_at_zero_halves_the_linear_branch(self, conv):
        # with the gate affine zeroed, sigmoid(0) = 0.5 exactly
        conv.glu_w2.data[...] = 0.0
        conv.glu_b2.data[...] = 0.0
        x = rand_x(5, CFG.d_model, seed=12)
        xn = (x - x.mean(-1, keepdims=True)) / np.sqrt(
            x.var(-1, keepdims=True) + LN_EPS)
        h = xn @ conv.pw1_w.data + conv.pw1_b.data
        d = CFG.d_model
        glu = 0.5 * (h[:, :d] @ conv.glu_w1.data + conv.glu_b1.data)
        from oracle_utils import np_depthwise_triple_loop

        dw = np_depthwise_triple_loop(glu, conv.dw_kernel.data,
                                      conv.dw_bias.data, (CFG.conv_kernel - 1) // 2)
        want = x + (np_swish(dw) @ conv.proj_w.data + conv.proj_b.data)
        got = conv_module_forward(Tensor(x), conv, CFG).data
        assert_allclose(got, want, atol=1e-10, rtol=0)


class TestResidualPassthrough:
    def test_pwff_zero_branch(self, pwff):
        pwff.w2.data[...] = 0.0
        pwff.b2.data[...] = 0.0
        x = rand_x(5, CFG.d_model, seed=13)
        assert_array_equal(pwff_forward(Tensor(x), pwff, CFG).data, x)

    def test_mhsa_zero_projection_gives_zero_branch(self, mhsa):
        mhsa.o.data[...] = 0.0
        x = rand_x(5, CFG.d_model, seed=14)
        assert_array_equal(mhsa_forward(Tensor(x), mhsa, CFG).data,
                           np.zeros_like(x))

    def test_conv_zero_branch(self, conv):
        conv.proj_w.data[...] = 0.0
        conv.proj_b.data[...] = 0.0
        x = rand_x(5, CFG.d_model, seed=15)
        assert_array_equal(conv_module_forward(Tensor(x), conv, CFG).data, x)

    def test_block_all_branches_zeroed_is_plain_layer_norm(self, block):
        for pw in (block.pwff_a, block.pwff_b):
            pw.w2.data[...] = 0.0
            pw.b2.data[...] = 0.0
        block.mhsa.o.data[...] = 0.0
        block.conv.proj_w.data[...] = 0.0
        block.conv.proj_b.data[...] = 0.0
        x = rand_x(5, CFG.d_model, seed=16)
        got = encoder_block_forward(Tensor(x), block, CFG).data
        want = layer_norm(Tensor(x), block.final_ln_gamma,
                          block.final_ln_beta).data
        assert_array_equal(got, want)


class TestStructuralProperties:
    @pytest.mark.parametrize("t", [1, 5, 17])
    @pytest.mark.parametrize("d", [8, 16])
    def test_shape_preservation(self, t, d):
        cfg = small_cfg(d_model=d, n_heads=2, d_pwff=2 * d)
        p = encoder_block_init(SeedStream(20).child(f"b{t}x{d}"), cfg, np.float64)
        x = rand_x(t, d, seed=t * 100 + d)
        assert encoder_block_forward(Tensor(x), p, cfg).shape == (t, d)

    def test_attention_rows_sum_to_one(self, mhsa):
        x = rand_x(7, CFG.d_model, seed=17)
        for a in attention_matrices(x, mhsa, CFG):
            assert np.all(a >= 0)
            assert_allclose(a.sum(axis=-1), np.ones(7), atol=1e-9)

    def test_mhsa_permutation_equivariance(self, mhsa):
        x = rand_x(8, CFG.d_model, seed=18)
        perm = np.random.default_rng(19).permutation(8)
        direct = mhsa_forward(Tensor(x[perm]), mhsa, CFG).data
        permuted = mhsa_forward(Tensor(x), mhsa, CFG).data[perm]
        assert_allclose(direct, permuted, atol=1e-12, rtol=0)

    def test_conv_module_not_permutation_equivariant(self, conv):
        x = rand_x(8, CFG.d_model, seed=18)
        perm = np.roll(np.arange(8), 3)
        direct = conv_module_forward(Tensor(x[perm]), conv, CFG).data
        permuted = conv_module_forward(Tensor(x), conv, CFG).data[perm]
        assert np.max(np.abs(direct - permuted)) > 1e-3

    def test_mhsa_constant_shift_invariance(self, mhsa):
        x = rand_x(6, CFG.d_model, seed=21)
        base = mhsa_forward(Tensor(x), mhsa, CFG).data
        shifted = mhsa_forward(Tensor(x + 5.0), mhsa, CFG).data
        assert_allclose(shifted, base, atol=1e-9, rtol=0)


class TestGradients:
    def test_submodule_gradchecks(self):
        reports = gradcheck_suite(["pwff", "mhsa", "conv", "block"])
        for name, rep in reports.items():
            assert rep.passed, f"{name}: {rep.line()}"


class TestDropoutPlumbing:
    def test_training_mode_changes_output_and_eval_does_not(self, pwff):
        cfg = small_cfg(dropout_p=0.5)
        x = rand_x(6, cfg.d_model, seed=22)
        eval_out = pwff_forward(Tensor(x), pwff, cfg).data
        eval_out2 = pwff_forward(Tensor(x), pwff, cfg).data
        assert_array_equal(eval_out, eval_out2)
        train_out = pwff_forward(Tensor(x), pwff, cfg,
                                 rng=np.random.default_rng(1)).data
        assert np.max(np.abs(train_out - eval_out)) > 1e-6
