"""Model assembly, forward contracts, and checkpoint serialization."""

import errno
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import eened.model
from eened.config import ModelConfig, model_config_to_text
from eened.model import (MAGIC, CheckpointError, CheckpointMagicError,
                         CheckpointShapeError, CheckpointTruncatedError,
                         eval_block_rows, load_checkpoint, model_forward,
                         model_forward_batch, model_init, named_parameters,
                         save_checkpoint)
from eened.tensor import ConfigError, ShapeError, Tape, Tensor
from eened.train import toy_model_config


def toy_model(seed=5, dtype="float32"):
    return model_init(toy_model_config(seed=seed), dtype=dtype)


class TestModelInit:
    def test_default_parameter_count_closed_form(self):
        # per block: two feed-forwards 2*(512*2048 + 2048 + 2048*512 + 512
        # + 2*512) = 4_201_472; attention 3*8*512*64 + 512*512 + 2*512
        # = 1_049_600; conv module 512*1024 + 1024 + 2*(512*512 + 512)
        # + 512*15 + 512 + 512*512 + 512 + 2*512 = 1_322_496; final norm
        # 1024 -> 6_574_592 per block, 3 blocks. embedding 512 + 512; head
        # 512*128 + 128 + 128 + 1.
        expected = 3 * 6_574_592 + 1024 + 65_793
        assert expected == 19_790_593
        m = model_init(ModelConfig())
        assert m.params.n_params() == expected

    def test_same_seed_is_bitwise_identical(self):
        a, b = toy_model(seed=9), toy_model(seed=9)
        for (name_a, ta), (name_b, tb) in zip(named_parameters(a),
                                              named_parameters(b)):
            assert name_a == name_b
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seeds_differ(self):
        a, b = toy_model(seed=1), toy_model(seed=2)
        assert a.embed_w.data.tobytes() != b.embed_w.data.tobytes()

    def test_head_count_invariant(self):
        with pytest.raises(ConfigError, match="n_heads"):
            ModelConfig(n_heads=3, d_model=512)

    def test_pad_invariant(self):
        with pytest.raises(ConfigError, match="conv_pad"):
            ModelConfig(conv_kernel=15, conv_pad=3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="conv_kernel"):
            ModelConfig(conv_kernel=14, conv_pad=7)

    def test_pwff_expansion_invariant(self):
        with pytest.raises(ConfigError, match="d_pwff"):
            ModelConfig(d_pwff=100)

    def test_param_names_unique_and_ordered(self):
        m = toy_model()
        names = [name for name, _ in named_parameters(m)]
        assert len(names) == len(set(names))
        assert names[0] == "embed.w"
        assert names[-1] == "head.b2"
        assert m.params.names() == names


class TestForward:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25)
    def test_output_strictly_inside_unit_interval(self, seed):
        m = toy_model()
        x = np.random.default_rng(seed).normal(0, 3, size=(4, m.config.t_in))
        p = model_forward_batch(m, Tensor(x.astype(np.float32))).data
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_eval_mode_is_deterministic(self):
        m = toy_model()
        x = Tensor(np.random.default_rng(0).normal(
            size=(3, m.config.t_in)).astype(np.float32))
        a = model_forward_batch(m, x).data
        b = model_forward_batch(m, x).data
        assert_array_equal(a, b)

    def test_wrong_length_rejected(self):
        m = toy_model()
        with pytest.raises(ShapeError):
            model_forward_batch(m, Tensor(np.zeros((2, m.config.t_in + 1))))
        with pytest.raises(ShapeError):
            model_forward(m, Tensor(np.zeros(m.config.t_in - 1)))

    def test_single_segment_matches_batch(self):
        m = toy_model()
        x = np.random.default_rng(3).normal(size=(m.config.t_in,)).astype(np.float32)
        single = model_forward(m, Tensor(x)).item()
        batched = model_forward_batch(m, Tensor(x.reshape(1, -1))).data[0]
        assert single == batched

    def test_float64_input_is_cast_to_model_dtype(self):
        m = toy_model()
        x64 = np.random.default_rng(4).normal(size=(2, m.config.t_in))
        p64 = model_forward_batch(m, Tensor(x64)).data
        p32 = model_forward_batch(m, Tensor(x64.astype(np.float32))).data
        assert p64.dtype == np.float32
        assert_array_equal(p64, p32)


def blocked_model(dtype="float32"):
    # t_in=128: the widest activation is one head's 128x128 scores, so an
    # untaped eval forward runs blocks of 2**18 // 128**2 = 16 rows
    return model_init(toy_model_config(t_in=128, n_blocks=1), dtype=dtype)


class TestBlockedEval:
    def test_block_rows_follow_the_config(self):
        desk = ModelConfig(d_model=64, n_heads=4, head_dim=16, n_blocks=2,
                           d_pwff=256)
        assert eval_block_rows(desk) == 5  # 2**18 // (178 * 256)
        assert eval_block_rows(ModelConfig()) == 2  # ceil(256 / 178) steps
        assert eval_block_rows(blocked_model().config) == 16

    @pytest.mark.parametrize("dtype, atol", [("float32", 1e-6), ("float64", 1e-12)])
    @pytest.mark.parametrize("n", [0, 5, 32, 37])
    def test_matches_row_by_row_forward(self, dtype, atol, n):
        # no rows, below one block, two whole blocks, two blocks and a rest;
        # BLAS may order a product's sums differently for another row count,
        # so rows agree to float rounding rather than bitwise
        m = blocked_model(dtype)
        x = np.random.default_rng(n).normal(size=(n, m.config.t_in)).astype(dtype)
        blocked = model_forward_batch(m, Tensor(x)).data
        rows = np.array([model_forward(m, Tensor(row)).item() for row in x])
        assert blocked.shape == (n,) and blocked.dtype == np.dtype(dtype)
        assert_allclose(blocked, rows, rtol=0, atol=atol)

    def test_only_untaped_eval_is_blocked(self, monkeypatch):
        m = blocked_model()
        x = Tensor(np.random.default_rng(0).normal(
            size=(37, m.config.t_in)).astype(np.float32))
        seen = []
        real = eened.model.encoder_block_forward

        def spy(h, *args):
            seen.append(h.shape[0])
            return real(h, *args)

        monkeypatch.setattr(eened.model, "encoder_block_forward", spy)
        model_forward_batch(m, x)
        assert seen == [16, 16, 5]
        seen.clear()
        with Tape():
            model_forward_batch(m, x)
        model_forward_batch(m, x, training=True, rng=np.random.default_rng(0))
        assert seen == [37, 37]

    def test_tape_node_count_does_not_depend_on_batch(self):
        m = blocked_model()
        counts = []
        for b in (1, 64):
            with Tape() as tape:
                model_forward_batch(m, Tensor(np.zeros((b, m.config.t_in),
                                                       dtype=np.float32)))
            counts.append(len(tape))
        assert counts[0] == counts[1]


class _FullDisk:
    """A file that accepts ``room`` bytes, then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        view = memoryview(data).cast("B")
        if len(view) > self.room:
            self.fh.write(view[:self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(view)
        return self.fh.write(view)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = toy_model(seed=21)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(named_parameters(m),
                                      named_parameters(loaded)):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()
        assert loaded.config == m.config

    def test_save_load_save_is_byte_identical(self, tmp_path):
        m = toy_model(seed=22)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_after_round_trip_is_bitwise_equal(self, tmp_path):
        m = toy_model(seed=23)
        x = Tensor(np.random.default_rng(5).normal(
            size=(3, m.config.t_in)).astype(np.float32))
        before = model_forward_batch(m, x).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        after = model_forward_batch(load_checkpoint(path), x).data
        assert_array_equal(before, after)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(), path)
        blob = bytearray(path.read_bytes())
        blob[3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_shape_mismatch_against_config(self, tmp_path):
        # rewrite the header config to a wider model: the first stored tensor
        # no longer matches the shape table that config implies
        m = toy_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        old_cfg = model_config_to_text(m.config).encode()
        wider = toy_model_config(d_model=16, n_heads=2, head_dim=8)
        new_cfg = model_config_to_text(wider).encode()
        assert blob[8:12] == struct.pack("<I", len(old_cfg))
        doctored = (MAGIC + struct.pack("<I", len(new_cfg)) + new_cfg
                    + blob[12 + len(old_cfg):])
        path.write_bytes(doctored)
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)

    def test_invalid_config_in_header(self, tmp_path):
        m = toy_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        old_cfg = model_config_to_text(m.config)
        bad_cfg = old_cfg.replace("n_heads=2", "n_heads=3").encode()
        doctored = (MAGIC + struct.pack("<I", len(bad_cfg)) + bad_cfg
                    + blob[12 + len(old_cfg.encode()):])
        path.write_bytes(doctored)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, tmp_path):
        m = toy_model()
        m.embed_w.data[0, 0] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(seed=1), path)
        before = path.read_bytes()
        real_open = open
        monkeypatch.setattr(
            eened.model, "open",
            lambda *args, **kwargs: _FullDisk(real_open(*args, **kwargs), 100),
            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(toy_model(seed=2), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]
