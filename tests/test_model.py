"""Model assembly, forward contracts, and checkpoint serialization."""

import gc
import itertools
import os
import re
import struct
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import eened.model
import eened.tensor
from eened.config import ModelConfig, model_config_to_text
from eened.model import (MAGIC, CheckpointError, CheckpointMagicError,
                         CheckpointShapeError, CheckpointTruncatedError,
                         eval_block_rows, load_checkpoint, model_forward_batch,
                         model_init, named_parameters, save_checkpoint)
from eened.tensor import (ConfigError, ContractError, ShapeError, Tape, Tensor,
                          cpu_workers)
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
        assert sum(t.size for _, t in m.params.items()) == expected

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

    def test_head_dim_and_conv_pad_are_derived(self):
        # kernel, width and head count can each be set alone; the two old
        # names, which CK1 headers carry, are taken only at the derived value
        assert len(fields(ModelConfig)) == 9
        assert ModelConfig(conv_kernel=9).conv_pad == 4
        assert ModelConfig(d_model=64).head_dim == 8
        assert ModelConfig(n_heads=16).head_dim == 32
        assert ModelConfig(head_dim=64, conv_pad=7) == ModelConfig()
        assert ModelConfig(conv_kernel=9, conv_pad=4) == ModelConfig(conv_kernel=9)
        for kwargs, message in [
                (dict(head_dim=9), "head_dim is derived as 64, got 9"),
                (dict(d_model=64, head_dim=64), "head_dim is derived as 8, got 64"),
                (dict(conv_kernel=9, conv_pad=7), "conv_pad is derived as 4, got 7"),
                (dict(conv_pad=7.0), "conv_pad is derived as 7, got 7.0")]:
            with pytest.raises(ConfigError, match=message):
                ModelConfig(**kwargs)

    def test_replace_derives_anew(self):
        # replace passed each InitVar the old derived value, and raised
        assert replace(ModelConfig(), d_model=64).head_dim == 8
        assert replace(ModelConfig(), conv_kernel=9).conv_pad == 4
        assert replace(ModelConfig(), n_heads=4) == ModelConfig(n_heads=4)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="conv_kernel"):
            ModelConfig(conv_kernel=14)

    def test_pwff_expansion_invariant(self):
        with pytest.raises(ConfigError, match="d_pwff"):
            ModelConfig(d_pwff=100)

    def test_parameter_walk_is_pinned(self):
        # checkpoints store the tensors under these names in this order:
        # a change here stops every existing checkpoint from loading
        expected = [
            "embed.w", "embed.b", "block0.pwff_a.w1", "block0.pwff_a.b1",
            "block0.pwff_a.w2", "block0.pwff_a.b2", "block0.pwff_a.ln_gamma",
            "block0.pwff_a.ln_beta", "block0.mhsa.q0", "block0.mhsa.q1",
            "block0.mhsa.k0", "block0.mhsa.k1", "block0.mhsa.v0",
            "block0.mhsa.v1", "block0.mhsa.o", "block0.mhsa.ln_gamma",
            "block0.mhsa.ln_beta", "block0.conv.pw1_w", "block0.conv.pw1_b",
            "block0.conv.glu_w1", "block0.conv.glu_b1", "block0.conv.glu_w2",
            "block0.conv.glu_b2", "block0.conv.dw_kernel",
            "block0.conv.dw_bias", "block0.conv.proj_w", "block0.conv.proj_b",
            "block0.conv.ln_gamma", "block0.conv.ln_beta", "block0.pwff_b.w1",
            "block0.pwff_b.b1", "block0.pwff_b.w2", "block0.pwff_b.b2",
            "block0.pwff_b.ln_gamma", "block0.pwff_b.ln_beta",
            "block0.final_ln_gamma", "block0.final_ln_beta",
            "block1.pwff_a.w1", "block1.pwff_a.b1", "block1.pwff_a.w2",
            "block1.pwff_a.b2", "block1.pwff_a.ln_gamma",
            "block1.pwff_a.ln_beta", "block1.mhsa.q0", "block1.mhsa.q1",
            "block1.mhsa.k0", "block1.mhsa.k1", "block1.mhsa.v0",
            "block1.mhsa.v1", "block1.mhsa.o", "block1.mhsa.ln_gamma",
            "block1.mhsa.ln_beta", "block1.conv.pw1_w", "block1.conv.pw1_b",
            "block1.conv.glu_w1", "block1.conv.glu_b1", "block1.conv.glu_w2",
            "block1.conv.glu_b2", "block1.conv.dw_kernel",
            "block1.conv.dw_bias", "block1.conv.proj_w", "block1.conv.proj_b",
            "block1.conv.ln_gamma", "block1.conv.ln_beta", "block1.pwff_b.w1",
            "block1.pwff_b.b1", "block1.pwff_b.w2", "block1.pwff_b.b2",
            "block1.pwff_b.ln_gamma", "block1.pwff_b.ln_beta",
            "block1.final_ln_gamma", "block1.final_ln_beta", "head.w1",
            "head.b1", "head.w2", "head.b2"
        ]
        assert [name for name, _ in named_parameters(toy_model())] == expected

    def test_param_names_unique_and_ordered(self):
        m = toy_model()
        names = [name for name, _ in named_parameters(m)]
        assert len(names) == len(set(names))
        assert names[0] == "embed.w"
        assert names[-1] == "head.b2"
        assert [name for name, _ in m.params.items()] == names


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
            model_forward_batch(m, Tensor(np.zeros((1, m.config.t_in - 1))))
        with pytest.raises(ShapeError):
            model_forward_batch(m, Tensor(np.zeros(m.config.t_in)))

    def test_training_requires_rng(self):
        # checked on entry: a model without dropout refuses it too
        m = toy_model()
        x = Tensor(np.zeros((2, m.config.t_in), dtype=np.float32))
        with Tape() as tape, pytest.raises(ContractError):
            model_forward_batch(m, x, training=True)
        assert tape.nodes == []

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


def pin_workers(monkeypatch, n):
    monkeypatch.setattr(eened.tensor, "cpu_workers", lambda: n)


def no_part_threads(monkeypatch):
    """Fail on any task handed to a part thread: none are left to take one,
    and none may start."""
    def no_thread():
        raise AssertionError("a part thread was started")

    monkeypatch.setattr(eened.tensor, "_PART_THREADS", [])
    monkeypatch.setattr(eened.tensor, "_PartThread", no_thread)


def assert_new_threads_are_part_threads(before, workers):
    extra = set(threading.enumerate()) - before
    assert len(extra) <= workers - 1
    assert all(t.daemon and t.name == "eened-part" for t in extra)


class TestBlockedEval:
    def test_block_rows_follow_the_config(self):
        desk = ModelConfig(d_model=64, n_heads=4, n_blocks=2, d_pwff=256)
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
        rows = np.array([model_forward_batch(m, Tensor(row[None])).item()
                         for row in x])
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
        pin_workers(monkeypatch, 1)
        model_forward_batch(m, x)
        assert seen == [16, 16, 5]
        seen.clear()
        pin_workers(monkeypatch, 2)
        model_forward_batch(m, x)
        assert sorted(seen) == [5, 16, 16]
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
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1]


class TestThreadedEval:
    def test_workers_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cpu_workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cpu_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n", [0, 5, 37, 100])
    def test_threads_match_one_worker_bitwise(self, monkeypatch, dtype, n):
        # no rows, one block, two blocks and a rest, six blocks and a rest
        m = blocked_model(dtype)
        x = Tensor(np.random.default_rng(n).normal(
            size=(n, m.config.t_in)).astype(dtype))
        pin_workers(monkeypatch, 1)
        serial = model_forward_batch(m, x).data
        for workers in (2, 3):
            pin_workers(monkeypatch, workers)
            assert_array_equal(model_forward_batch(m, x).data, serial)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # every block must land in its own rows once: a lost or misplaced
        # write changes the result
        m = blocked_model()
        workers = (os.cpu_count() or 1) + 2
        x = Tensor(np.random.default_rng(1).normal(
            size=(16 * workers + 3, m.config.t_in)).astype(np.float32))
        pin_workers(monkeypatch, 1)
        serial = model_forward_batch(m, x).data
        pin_workers(monkeypatch, workers)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.extend(
                model_forward_batch(m, x).data for _ in range(3)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(results) == 3
        for got in results:
            assert_array_equal(got, serial)

    def test_block_error_reraises_and_leaves_no_thread(self, monkeypatch):
        m = blocked_model()
        x = Tensor(np.zeros((100, m.config.t_in), dtype=np.float32))
        calls = itertools.count()
        real = eened.model.encoder_block_forward

        def fail_second(h, *args):
            if next(calls) == 1:
                raise FloatingPointError("block failed")
            return real(h, *args)

        monkeypatch.setattr(eened.model, "encoder_block_forward", fail_second)
        pin_workers(monkeypatch, 4)
        before = set(threading.enumerate())
        with pytest.raises(FloatingPointError, match="block failed"):
            model_forward_batch(m, x)
        assert_new_threads_are_part_threads(before, 4)
        after = set(threading.enumerate())
        calls = itertools.count()
        with pytest.raises(FloatingPointError, match="block failed"):
            model_forward_batch(m, x)
        assert set(threading.enumerate()) == after

    def test_blocks_run_under_the_callers_error_state(self, monkeypatch):
        # the overflow is only in the second block, on a part thread
        m = blocked_model()
        x = np.random.default_rng(0).normal(
            size=(32, m.config.t_in)).astype(np.float32)
        x[16:] = 3e38
        pin_workers(monkeypatch, 2)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError):
                model_forward_batch(m, Tensor(x))

    def test_one_cpu_runs_every_block_in_the_calling_thread(self, monkeypatch):
        m = blocked_model()
        x = Tensor(np.zeros((37, m.config.t_in), dtype=np.float32))
        threads = []
        real = eened.model.encoder_block_forward

        def spy(h, *args):
            threads.append(threading.get_ident())
            return real(h, *args)

        monkeypatch.setattr(eened.model, "encoder_block_forward", spy)
        pin_workers(monkeypatch, 4)
        # one block runs here; its heads may go to the part threads
        model_forward_batch(m, Tensor(x.data[:5]))
        assert threads == [threading.get_ident()]
        threads.clear()
        no_part_threads(monkeypatch)
        pin_workers(monkeypatch, 1)
        model_forward_batch(m, x)
        assert threads == [threading.get_ident()] * 3


class TestCheckpoint:
    def test_equal_configs_write_equal_headers(self):
        # a float field given an int kept the int: dropout_p=0 wrote a
        # different header than the equal dropout_p=0.0
        a, b = ModelConfig(dropout_p=0), ModelConfig(dropout_p=0.0)
        assert a == b
        assert model_config_to_text(a) == model_config_to_text(b)
        with pytest.raises(ConfigError, match="dropout_p must be a finite real"):
            ModelConfig(dropout_p=10 ** 400)  # an int beyond float range

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
        wider = toy_model_config(d_model=16, n_heads=2)
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
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: header: "):
            load_checkpoint(path)

    def test_config_that_is_not_utf8_is_a_checkpoint_error(self, tmp_path):
        m = toy_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF  # first byte of the config text
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: header: "):
            load_checkpoint(path)

    def test_header_with_the_derived_lines_loads_alike(self, tmp_path):
        # checkpoints written while head_dim and conv_pad were config fields
        # carry them as header lines; they load to the same config and bits
        m = toy_model(seed=25)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        new_cfg = model_config_to_text(m.config)
        assert "head_dim" not in new_cfg and "conv_pad" not in new_cfg
        old_cfg = "".join(sorted(new_cfg.splitlines(keepends=True)
                                 + ["conv_pad=7\n", "head_dim=4\n"])).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(old_cfg)) + old_cfg
                         + blob[12 + len(new_cfg.encode()):])
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        for (na, ta), (nb, tb) in zip(named_parameters(m), named_parameters(loaded)):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_non_finite_values_rejected(self, tmp_path):
        m = toy_model()
        m.embed_w.data[0, 0] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_every_truncation_raises_a_typed_error(self, tmp_path):
        m = toy_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        # record ends: magic, config length, config text, then per tensor its
        # name length, name, rank, extents and payload
        cfg_len = len(model_config_to_text(m.config).encode())
        ends = [len(MAGIC), len(MAGIC) + 4, len(MAGIC) + 4 + cfg_len]
        for name, t in named_parameters(m):
            for size in (4, len(name.encode()), 1, 4 * t.ndim, 4 * t.size):
                ends.append(ends[-1] + size)
        assert ends[-1] == len(blob)
        cuts = {e + d for e in [0] + ends for d in (-1, 0, 1)}
        cuts |= set(np.random.default_rng(31).integers(0, len(blob), 200).tolist())
        cut_path = tmp_path / "cut.ckpt"
        for cut in sorted(c for c in cuts if 0 <= c < len(blob)):
            cut_path.write_bytes(blob[:cut])
            # any other exception (struct.error, UnicodeDecodeError,
            # ValueError) propagates and fails the test, as does a model
            with pytest.raises(CheckpointTruncatedError, match=f"ends at byte {cut} "):
                load_checkpoint(cut_path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        m = toy_model(seed=24)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)

        class NoDraws(np.random.Generator):
            def uniform(self, *args, **kwargs):
                raise AssertionError("drew random numbers")

        # Generator is an immutable type, so its uniform cannot be patched in
        # place: every generator eened makes is this subclass instead
        monkeypatch.setattr(np.random, "Generator", NoDraws)
        with pytest.raises(AssertionError, match="drew random numbers"):
            model_init(m.config)
        loaded = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(named_parameters(m), named_parameters(loaded)):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_load_peak_memory_is_about_the_parameter_bytes(self, tmp_path):
        # no copy of the file and no random draw: the parameters are the
        # only large allocation (a load that drew a random model and read
        # the whole file into memory peaked at 2.17x on this model)
        cfg = toy_model_config(d_model=128, n_heads=2, d_pwff=512, n_blocks=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model_init(cfg), path)
        gc.collect()
        tracemalloc.start()
        try:
            m = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(t.data.nbytes for _, t in named_parameters(m))
        assert param_bytes >= 3 << 20
        assert peak < 1.25 * param_bytes

    def test_every_parameter_is_a_view_of_one_arena(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(seed=26), path)
        params = named_parameters(load_checkpoint(path))
        arena = params[0][1].data.base
        assert arena is not None and arena.ndim == 1
        assert all(t.data.base is arena and t.data.flags.c_contiguous
                   for _, t in params)
        assert arena.nbytes == sum(t.data.nbytes for _, t in params)

    def test_worker_count_does_not_change_the_loaded_bits(self, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(seed=27), path)

        with monkeypatch.context() as patch:
            no_part_threads(patch)
            pin_workers(patch, 1)
            serial = [t.data.tobytes() for _, t in
                      named_parameters(load_checkpoint(path))]
        # more parts than cores under fast switching: a part read into the
        # wrong bytes of the arena changes the result
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, (os.cpu_count() or 1) + 2):
                pin_workers(monkeypatch, workers)
                assert [t.data.tobytes() for _, t in named_parameters(
                    load_checkpoint(path))] == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_the_last_tensor_is_named(self, tmp_path,
                                                          monkeypatch, bad):
        # with two workers the last tensor is in the pool's second part
        m = toy_model()
        name, last = named_parameters(m)[-1]
        last.data[...] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        pin_workers(monkeypatch, 2)
        with pytest.raises(CheckpointError,
                           match=f"tensor {re.escape(repr(name))} has non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_non_finite_tensor_in_file_order_is_named(self, tmp_path,
                                                            monkeypatch, workers):
        m = toy_model()
        params = named_parameters(m)
        for _, t in (params[0], params[len(params) // 2], params[-1]):
            t.data.reshape(-1)[-1] = np.inf
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        pin_workers(monkeypatch, workers)
        with pytest.raises(CheckpointError,
                           match=f"tensor {re.escape(repr(params[0][0]))} has"):
            load_checkpoint(path)

    def test_header_failure_is_reported_before_a_non_finite_payload(self, tmp_path):
        m = toy_model()
        m.embed_w.data[0, 0] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_failed_load_leaves_no_thread(self, tmp_path, monkeypatch):
        m = toy_model()
        named_parameters(m)[-1][1].data[...] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        pin_workers(monkeypatch, 2)
        before = set(threading.enumerate())
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)
        assert_new_threads_are_part_threads(before, 2)
        after = set(threading.enumerate())
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)
        assert set(threading.enumerate()) == after

    def test_checkpoint_replaced_during_its_load_is_an_error(self, tmp_path,
                                                             monkeypatch):
        # a save between the header pass and the payload pass returned seed
        # 1's config with seed 2's parameters
        path, other = tmp_path / "m.ckpt", tmp_path / "other.ckpt"
        save_checkpoint(toy_model(seed=1), path)
        save_checkpoint(toy_model(seed=2), other)
        inner = eened.model.run_on_cpus

        def replace_first(fn, n):
            os.replace(other, path)
            return inner(fn, n)

        monkeypatch.setattr(eened.model, "run_on_cpus", replace_first)
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: replaced while being read$"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, full_disk):
        path = tmp_path / "m.ckpt"
        save_checkpoint(toy_model(seed=1), path)
        before = path.read_bytes()
        full_disk(100)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(toy_model(seed=2), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]
