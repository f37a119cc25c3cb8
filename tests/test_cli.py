"""Command-line interface: exit codes, stream discipline, and end-to-end
flows on the built-in synthetic dataset."""

import os
import re
import struct
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import eened.cli
import eened.train
from eened.cli import build_parser, main
from eened.config import ModelConfig, TrainConfig
from eened.data import TEST, TRAIN, Dataset, make_toy_dataset, normalize
from eened.model import load_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One toy checkpoint shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "toy.ckpt"
    code = main(["train", "--toy", "--out", str(out), "--seed", "7",
                 "--epochs", "6"])
    assert code == 0
    return out


class TestTrainCommand:
    def test_toy_run_under_a_minute(self, capsys, tmp_path):
        out = tmp_path / "m.ckpt"
        started = time.monotonic()
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--seed", "3")
        elapsed = time.monotonic() - started
        assert code == 0
        assert elapsed < 60.0
        assert out.exists()
        assert (tmp_path / "m.ckpt.log").exists()
        assert re.search(r"^accuracy=0\.\d{6}$|^accuracy=1\.000000$",
                         stdout, flags=re.M)
        assert re.search(r"^epoch=1 loss=", stdout, flags=re.M)
        assert "checkpoint written" in stderr

    def test_diverged_run_exits_5_without_checkpoint(self, capsys, tmp_path):
        out = tmp_path / "m.ckpt"
        with np.errstate(all="ignore"):
            code, _, stderr = run_cli(
                capsys, "train", "--toy", "--out", str(out), "--lr", "1e30",
                "--epochs", "2")
        assert code == 5
        assert "non-finite loss" in stderr and "epoch 1, step 2" in stderr
        assert not out.exists()
        assert os.listdir(tmp_path) == []

    def test_failed_log_write_keeps_previous_log(self, capsys, tmp_path,
                                                 full_disk):
        out = tmp_path / "m.ckpt"
        args = ["train", "--toy", "--out", str(out), "--epochs", "1"]
        assert run_cli(capsys, *args, "--seed", "3")[0] == 0
        log = tmp_path / "m.ckpt.log"
        before = log.read_bytes()
        full_disk(10, part=".log.")
        code, _, stderr = run_cli(capsys, *args, "--seed", "4")
        assert code == 3
        assert "No space left" in stderr
        assert log.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "m.ckpt.log"]

    def test_divisibility_config_error(self, capsys, tmp_path):
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(tmp_path / "m.ckpt"),
            "--n-heads", "3", "--d-model", "512")
        assert code == 1
        assert "n_heads" in stderr and "d_model" in stderr.replace(" ", "_")
        assert stdout == ""

    @pytest.mark.parametrize("flag, field, value", [
        ("--conv-kernel", "conv_kernel", 9),
        ("--d-model", "d_model", 64),
        ("--n-heads", "n_heads", 8),
    ])
    def test_kernel_width_and_head_count_can_each_be_set_alone(
            self, capsys, tmp_path, flag, field, value):
        # each exited 1 while head_dim and conv_pad had to be set in step
        out = tmp_path / "m.ckpt"
        code, _, stderr = run_cli(capsys, "train", "--toy", "--out", str(out),
                                  "--epochs", "1", flag, str(value))
        assert code == 0, stderr
        assert getattr(load_checkpoint(out).config, field) == value

    def test_missing_data_argument(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert "--data" in stderr

    def test_nonexistent_data_file(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "train", "--data", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "m.ckpt"))
        assert code == 2

    def test_config_file_merge_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\nbatch_size=16\n")
        out = tmp_path / "m.ckpt"
        code, stdout, _ = run_cli(
            capsys, "train", "--toy", "--out", str(out),
            "--config", str(cfg), "--epochs", "2", "--seed", "1")
        assert code == 0
        epochs_logged = re.findall(r"^epoch=(\d+) ", stdout, flags=re.M)
        assert epochs_logged == ["1", "2"]  # flag beat the file's 5

    def test_unknown_config_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nlearning_rate=0.5\nbatchsize=7\n")
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:2" in stderr and "learning_rate" in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("epochs=five", "epochs"),
        ("epochs=1.5", "epochs"),
        ("batch_size=True", "batch_size"),
        ("lr='0.1'", "lr"),
        ("dropout_p=[0.1]", "dropout_p"),
        ("conv_pad=7.0", "conv_pad"),
    ])
    def test_wrong_typed_config_value_is_config_error(self, capsys, tmp_path,
                                                      line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{line}\n")
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--config", str(cfg))
        assert code == 1, stderr
        assert stderr.startswith("config error:") and key in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lr", "inf", "lr"),
        ("--dropout-p", "nan", "dropout_p"),
        ("--threshold", "nan", "threshold"),
    ])
    def test_non_finite_real_option_is_config_error(self, capsys, tmp_path,
                                                    flag, value, field):
        # an infinite lr stopped only at step 2 (exit 5), and a nan
        # threshold labelled every row negative
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--epochs", "1",
            f"{flag}={value}")
        assert code == 1, stderr
        assert stderr.startswith("config error:")
        assert field in stderr and "finite" in stderr
        assert stdout == "" and os.listdir(tmp_path) == []

    def test_non_finite_real_in_config_file_is_config_error(self, capsys,
                                                           tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=1e999\n")  # a literal that reads as inf
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--config", str(cfg))
        assert code == 1
        assert "lr must be a finite real number, got inf" in stderr
        assert stdout == "" and not out.exists()

    def test_bool_split_seed_in_config_file_is_config_error(self, capsys,
                                                            tmp_path):
        # a bool is an int to isinstance: the split ran with the seed True
        cfg = tmp_path / "run.cfg"
        cfg.write_text("split_seed=True\n")
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--config", str(cfg))
        assert code == 1
        assert "split_seed must be a nonnegative integer, got True" in stderr
        assert stdout == "" and not out.exists()

    def test_comment_lines_and_dashed_keys_in_config_file(self, capsys,
                                                          tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text("epochs=2\neval_every=2\nbatch_size=16\n")
        dashed = tmp_path / "dashed.cfg"
        dashed.write_text("# epochs=9\n\n  epochs = 2\n# eval_every=1\n"
                          "eval-every=2\nbatch-size = 16\n")
        outs = []
        for cfg in (plain, dashed):
            out = tmp_path / (cfg.stem + ".ckpt")
            code, stdout, _ = run_cli(capsys, "train", "--toy", "--out",
                                      str(out), "--seed", "2", "--config", str(cfg))
            assert code == 0
            assert re.findall(r"^epoch=(\d+) ", stdout, flags=re.M) == ["2"]
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_removed_optimizer_key_in_config_file_is_config_error(
            self, capsys, tmp_path):
        # Adam's constants, weight decay and warmup are no options any more
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adam_beta1=0.8\n")
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--out", str(out), "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:1: unknown option 'adam_beta1'" in stderr
        assert stdout == "" and not out.exists()

    def test_toy_and_data_together_are_config_error(self, capsys, tmp_path):
        # --data was ignored
        out = tmp_path / "m.ckpt"
        code, stdout, stderr = run_cli(
            capsys, "train", "--toy", "--data", str(tmp_path / "none.csv"),
            "--out", str(out))
        assert code == 1
        assert "--toy" in stderr and "--data" in stderr
        assert stdout == "" and not out.exists()

    def test_each_epoch_evaluates_once_and_the_summary_adds_none(
            self, capsys, tmp_path, monkeypatch):
        # the summary reports the evaluation whose parameters train() kept
        calls = []
        real = eened.train.evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(eened.train, "evaluate", counting)
        monkeypatch.setattr(eened.cli, "evaluate", counting)
        code, _, _ = run_cli(capsys, "train", "--toy", "--out",
                             str(tmp_path / "m.ckpt"), "--epochs", "3")
        assert code == 0
        assert len(calls) == 3

    def test_log_file_is_the_printed_output(self, capsys, tmp_path):
        # epoch 1 is not evaluated, so it prints no line and logs none
        out = tmp_path / "m.ckpt"
        code, stdout, _ = run_cli(capsys, "train", "--toy", "--out", str(out),
                                  "--epochs", "3", "--eval-every", "2")
        assert code == 0
        assert stdout.startswith("epoch=2 ")
        assert (tmp_path / "m.ckpt.log").read_bytes() == stdout.encode("utf-8")

    def test_determinism_across_runs(self, capsys, tmp_path):
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "train", "--toy", "--out", str(out),
                                 "--seed", "9", "--epochs", "2")
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


# the optimizer flags that went with their TrainConfig fields
REMOVED_TRAIN_FLAGS = ["--adam-beta1", "--adam-beta2", "--adam-eps",
                       "--weight-decay", "--warmup-steps"]
# every model and training flag eval took, and could only ignore or check
# against the checkpoint
REMOVED_EVAL_FLAGS = ["--d-model", "--n-blocks", "--n-heads", "--conv-kernel",
                      "--d-pwff", "--dropout-p", "--t-in", "--classifier-hidden",
                      "--epochs", "--batch-size", "--lr", "--eval-every",
                      *REMOVED_TRAIN_FLAGS]


class TestConfigFlags:
    # eval takes none of them: see test_removed_flags_are_rejected
    @pytest.mark.parametrize("command", ["train"])
    def test_every_config_field_but_seed_has_a_flag_of_its_type(self, command):
        parser = build_parser()
        for f in fields(ModelConfig) + fields(TrainConfig):
            if f.name == "seed":
                continue
            args = parser.parse_args([command, f"--{f.name.replace('_', '-')}", "3"])
            value = getattr(args, f.name)
            assert value == 3 and type(value) is type(f.default), f.name
        assert type(parser.parse_args([command, "--seed", "3"]).seed) is int

    @pytest.mark.parametrize("command, flags", [
        ("train", REMOVED_TRAIN_FLAGS), ("eval", REMOVED_EVAL_FLAGS)],
        ids=["train", "eval"])
    def test_removed_flags_are_rejected(self, capsys, command, flags):
        # eval --epochs 0 exited 1 on a value it never read, and eval
        # --batch-size 7 --lr 5 --warmup-steps 3 exited 0 ignoring all three
        parser = build_parser()
        base = [command] + (["--checkpoint", "x.ckpt"] if command == "eval" else [])
        assert len(flags) == (5 if command == "train" else 17)
        for flag in flags:
            with pytest.raises(SystemExit):
                parser.parse_args(base + [flag, "3"])
            assert "unrecognized arguments" in capsys.readouterr().err, flag
        assert type(parser.parse_args(base + ["--seed", "3"]).seed) is int

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_derived_widths_have_no_flag(self, capsys, command):
        parser = build_parser()
        base = [command] + (["--checkpoint", "x.ckpt"] if command == "eval" else [])
        for flag in ("--head-dim", "--conv-pad"):
            with pytest.raises(SystemExit):
                parser.parse_args(base + [flag, "3"])
            assert "unrecognized arguments" in capsys.readouterr().err


class TestEvalCommand:
    def test_reproduces_training_summary(self, capsys, tmp_path, trained):
        code, train_out, _ = run_cli(
            capsys, "train", "--toy", "--out", str(tmp_path / "m.ckpt"),
            "--seed", "7", "--epochs", "6")
        assert code == 0
        code, eval_out, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tmp_path / "m.ckpt"),
            "--toy", "--seed", "7")
        assert code == 0
        summary = {line.split("=")[0]: line for line in train_out.splitlines()
                   if "=" in line and not line.startswith(("epoch", "norm",
                                                           "train_seconds"))}
        for line in eval_out.strip().splitlines():
            key = line.split("=")[0]
            assert summary[key] == line

    def test_missing_checkpoint(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--toy")
        assert code == 2
        assert "nope.ckpt" in stderr

    def test_threshold_monotonic(self, capsys, trained):
        def positives(threshold):
            code, out, _ = run_cli(
                capsys, "eval", "--checkpoint", str(trained), "--toy",
                "--seed", "7", "--threshold", threshold)
            assert code == 0
            values = dict(line.split("=") for line in out.strip().splitlines())
            return int(values["tp"]) + int(values["fp"])

        assert positives("0.9") <= positives("0.5")

    def test_model_options_matching_the_checkpoint_are_accepted(
            self, capsys, tmp_path, trained):
        # the toy checkpoint has d_model=32 and n_blocks=1; eval takes the
        # fields not set here from the checkpoint, not from the defaults
        base = run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--seed", "7")
        assert base[0] == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_model=32\nn_blocks=1\nepochs=6\n")
        assert run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--seed", "7", "--config", str(cfg)) == base

    def test_model_option_differing_from_the_checkpoint_is_config_error(
            self, capsys, tmp_path, trained):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_blocks=3\n")
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(trained), "--toy",
            "--seed", "7", "--config", str(cfg))
        assert code == 1
        assert stdout == ""
        assert "n_blocks is 3 here but 1 in the checkpoint" in stderr

    def test_training_keys_in_a_shared_config_file_are_ignored(
            self, capsys, tmp_path, trained):
        # epochs=0 exited 1 with "epochs must be >= 1", though eval reads
        # only the seed of the training keys
        base = run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--seed", "7")
        assert base[0] == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=0\nlr=-1.0\nbatch_size=0\neval_every=0\nseed=7\n")
        assert run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--config", str(cfg)) == base
        for line, message in [("split_seed=-1\n", "split_seed must be a nonnegative"),
                              ("epoch=0\n", "unknown option 'epoch'")]:
            cfg.write_text(line)
            code, stdout, stderr = run_cli(capsys, "eval", "--checkpoint",
                                           str(trained), "--toy", "--config", str(cfg))
            assert code == 1 and stdout == "" and message in stderr

    def test_seed_picks_the_split_alone(self, capsys, trained):
        # --seed 3 on a checkpoint trained at seed 7 exited 1 with "seed is 3
        # here but 7 in the checkpoint", though eval draws no weights
        code, stdout, stderr = run_cli(capsys, "eval", "--checkpoint", str(trained),
                                       "--toy", "--seed", "3")
        assert code == 0 and stderr == ""
        assert (code, stdout, stderr) == run_cli(
            capsys, "eval", "--checkpoint", str(trained), "--toy",
            "--seed", "7", "--split-seed", "3")

    def test_non_finite_threshold_is_config_error(self, capsys, trained):
        # a nan threshold labelled every row negative and exited 0
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(trained), "--toy",
            "--seed", "7", "--threshold", "nan")
        assert code == 1
        assert stdout == "" and "threshold must be finite" in stderr

    @pytest.mark.parametrize("threshold", ["5", "-3"])
    def test_threshold_outside_unit_interval_is_config_error(
            self, capsys, trained, threshold):
        # --threshold 5 exited 0 with tp = fp = 0
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(trained), "--toy",
            "--seed", "7", "--threshold", threshold)
        assert code == 1
        assert stdout == "" and "threshold must be finite and in [0, 1]" in stderr

    def test_toy_and_data_together_are_config_error(self, capsys, tmp_path,
                                                    trained):
        # --data was ignored, so a missing file exited 0
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(trained), "--toy",
            "--data", str(tmp_path / "none.csv"))
        assert code == 1
        assert stdout == "" and "--toy" in stderr and "--data" in stderr

    def test_garbage_checkpoint_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code, _, stderr = run_cli(capsys, "eval", "--checkpoint", str(bad), "--toy")
        assert code == 2
        assert "magic" in stderr

    @pytest.mark.parametrize("old, new", [
        ("d_model=32\n", "d_model=32\nhead_dim=9\n"),
        ("d_model=32\n", "d_model=3x\n"),
    ])
    def test_corrupt_header_is_data_error_naming_the_file(
            self, capsys, tmp_path, trained, old, new):
        # both exited 1 as a config error that did not name the file
        blob = trained.read_bytes()
        n = struct.unpack("<I", blob[8:12])[0]
        header = blob[12:12 + n].decode()
        assert old in header
        header = header.replace(old, new).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                        + blob[12 + n:])
        code, stdout, stderr = run_cli(capsys, "eval", "--checkpoint", str(bad), "--toy")
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"data error: {bad}: header: ")


class TestGradcheckCommand:
    def test_single_module(self, capsys):
        code, stdout, _ = run_cli(capsys, "gradcheck", "--module", "mhsa")
        assert code == 0
        assert stdout.startswith("mhsa: pass")
        assert "pwff" not in stdout

    def test_impossible_tolerance_exits_4(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "gradcheck", "--module", "pwff", "--tolerance", "1e-12")
        assert code == 4
        assert "FAIL" in stdout
        assert "pwff" in stderr

    @pytest.mark.parametrize("tolerance", ["nan", "0", "-1"])
    def test_bad_tolerance_is_config_error(self, capsys, tolerance):
        # each used to run the check and exit 4, a gradient-check failure
        code, stdout, stderr = run_cli(
            capsys, "gradcheck", "--module", "pwff", "--tolerance", tolerance)
        assert code == 1
        assert stdout == ""
        assert "tolerance must be finite and > 0" in stderr

    def test_unknown_module_is_config_error_exit(self, capsys):
        for modules, unknown in [("typo", "'typo'"), ("pwff,,mhsa", "''")]:
            code, _, stderr = run_cli(capsys, "gradcheck", "--module", modules)
            assert code == 1
            assert stderr.startswith("config error:") and unknown in stderr


class TestPredictCommand:
    def test_probability_for_training_rows(self, capsys, tmp_path, trained):
        model = load_checkpoint(trained)
        t_in = model.config.t_in
        ds = make_toy_dataset(384, t_in, seed=7)
        pos = ds.x[(ds.y == 1) & (ds.split == TRAIN)][0]
        seg = tmp_path / "segment.csv"
        seg.write_text(",".join(f"{v:.6f}" for v in pos) + "\n")
        mean = float(ds.x[ds.split == TRAIN].mean())
        std = float(ds.x[ds.split == TRAIN].std())
        code, stdout, _ = run_cli(
            capsys, "predict", "--checkpoint", str(trained), "--csv", str(seg),
            "--norm-mean", repr(mean), "--norm-std", repr(std))
        assert code == 0
        match = re.fullmatch(r"p=(0\.\d{6}|1\.000000) label=(0|1)",
                             stdout.strip())
        assert match
        assert float(match.group(1)) > 0.5
        assert match.group(2) == "1"

    def test_identical_input_identical_probability(self, capsys, trained, tmp_path):
        model = load_checkpoint(trained)
        features = ",".join(["0.25"] * model.config.t_in)
        outputs = []
        for _ in range(2):
            code, stdout, _ = run_cli(
                capsys, "predict", "--checkpoint", str(trained),
                "--features", features)
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_rows_fed_to_the_model_are_normalize_rows(self, capsys, tmp_path,
                                                      trained, monkeypatch):
        # predict z-scored in float32 and rounded twice, so about one element
        # in five was 1 ulp away from what normalize gives the same rows
        t_in = load_checkpoint(trained).config.t_in
        x = np.rint(np.random.default_rng(13).normal(0.0, 60.0, size=(300, t_in)))
        x = x.astype(np.float32)
        tags = np.full(300, TEST, np.uint8)
        tags[:200] = TRAIN
        ds = normalize(Dataset(x=x, y=np.zeros(300, np.uint8), split=tags))
        cells = [",".join(f"{v:.0f}" for v in row) for row in x]
        seg = tmp_path / "segments.csv"  # with a label column, which is dropped
        seg.write_text("".join(f"{row},1\n" for row in cells))
        fed = []
        inner = eened.cli.model_forward_batch

        def capture(model, rows, **kwargs):
            fed.append(rows.data)
            return inner(model, rows, **kwargs)

        monkeypatch.setattr(eened.cli, "model_forward_batch", capture)
        stats = ("--norm-mean", repr(ds.norm_stats[0]),
                 "--norm-std", repr(ds.norm_stats[1]))
        for source in (("--csv", str(seg)), ("--features", cells[7])):
            code, _, _ = run_cli(capsys, "predict", "--checkpoint",
                                 str(trained), *source, *stats)
            assert code == 0
        assert_array_equal(fed[0].view(np.uint32), ds.x.view(np.uint32))
        assert_array_equal(fed[1].view(np.uint32), ds.x[7:8].view(np.uint32))

    def test_wrong_feature_count(self, capsys, trained):
        code, _, stderr = run_cli(
            capsys, "predict", "--checkpoint", str(trained),
            "--features", "1.0,2.0,3.0")
        assert code == 2
        assert "features" in stderr or "expected" in stderr

    def test_csv_with_header_id_and_label_matches_features(self, capsys,
                                                           tmp_path, trained):
        t_in = load_checkpoint(trained).config.t_in
        rows = [[f"{v:.6f}" for v in row] for row in
                np.random.default_rng(11).normal(0, 2, size=(4, t_in))]
        seg = tmp_path / "segments.csv"
        seg.write_text("id," + ",".join(f"X{i}" for i in range(t_in)) + ",y\n"
                       + "".join(f"s{i}," + ",".join(r) + f",{i + 1}\n"
                                 for i, r in enumerate(rows)))
        code, from_csv, _ = run_cli(capsys, "predict", "--checkpoint",
                                    str(trained), "--csv", str(seg))
        assert code == 0
        lines = from_csv.splitlines()
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            code, alone, _ = run_cli(capsys, "predict", "--checkpoint",
                                     str(trained), "--features=" + ",".join(row))
            assert code == 0
            # the same features; a batch of 4 and a batch of 1 may differ in
            # the last float32 bits (BLAS sums in another order), which can
            # move the sixth printed decimal
            p_csv, label_csv = re.fullmatch(r"p=(\S+) label=(\d)", line).groups()
            p_one, label_one = re.fullmatch(r"p=(\S+) label=(\d)",
                                            alone.strip()).groups()
            assert abs(float(p_csv) - float(p_one)) <= 2e-6
            assert label_csv == label_one

    def test_csv_with_numbered_header_scores_only_the_rows(self, capsys,
                                                           tmp_path, trained):
        # the layout pandas writes for an unnamed frame: ",0,1,..." and a
        # row index; the header must not be scored as a segment
        t_in = load_checkpoint(trained).config.t_in
        rows = [[f"{v:.6f}" for v in row] for row in
                np.random.default_rng(12).normal(0, 2, size=(3, t_in))]
        named = tmp_path / "named.csv"
        named.write_text("".join(f"s{i}," + ",".join(r) + "\n"
                                 for i, r in enumerate(rows)))
        numbered = tmp_path / "numbered.csv"
        numbered.write_text("," + ",".join(map(str, range(t_in))) + "\n"
                            + "".join(f"{i}," + ",".join(r) + "\n"
                                      for i, r in enumerate(rows)))
        outs = []
        for path in (named, numbered):
            code, out, _ = run_cli(capsys, "predict", "--checkpoint",
                                   str(trained), "--csv", str(path))
            assert code == 0
            outs.append(out)
        assert len(outs[1].splitlines()) == len(rows)
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("flag, value", [
        ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-3"),
        ("--threshold", "5"), ("--norm-std", "0"), ("--norm-std", "-1"), ("--norm-std", "nan"),
        ("--norm-std", "inf"), ("--norm-mean", "nan"), ("--norm-mean", "-inf"),
    ])
    def test_bad_float_option_is_config_error(self, capsys, trained, flag,
                                              value):
        # --norm-std 0 printed p=nan label=0 and exited 0, and --threshold
        # -3 labelled every row 1
        features = ",".join(["0.25"] * load_checkpoint(trained).config.t_in)
        code, stdout, stderr = run_cli(
            capsys, "predict", "--checkpoint", str(trained),
            "--features", features, f"{flag}={value}")
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"config error: {flag[2:].replace('-', '_')} must be")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_features_are_data_error(self, capsys, tmp_path,
                                                trained, cell):
        # a nan or inf cell was scored p=nan label=0 and exited 0
        t_in = load_checkpoint(trained).config.t_in
        cells = ["0.3"] * t_in
        cells[1] = cell
        code, stdout, stderr = run_cli(
            capsys, "predict", "--checkpoint", str(trained),
            "--features=" + ",".join(cells))
        assert code == 2
        assert stdout == "" and f"non-finite value '{cell}'" in stderr
        seg = tmp_path / "segments.csv"
        seg.write_text(",".join(["0.3"] * t_in) + "\n" + ",".join(cells) + "\n")
        code, stdout, stderr = run_cli(
            capsys, "predict", "--checkpoint", str(trained), "--csv", str(seg))
        assert code == 2
        assert stdout == "" and f"segments.csv:2: non-finite value '{cell}'" in stderr

    @pytest.mark.parametrize("position", [1, None], ids=["empty", "trailing"])
    def test_empty_feature_cell_is_data_error(self, capsys, trained, position):
        # the list was re-split on commas and spaces, so an empty cell or a
        # trailing comma vanished and the row was scored
        t_in = load_checkpoint(trained).config.t_in
        cells = ["0.5"] * t_in
        cells.insert(len(cells) if position is None else position, "")
        code, stdout, stderr = run_cli(
            capsys, "predict", "--checkpoint", str(trained),
            "--features", ",".join(cells))
        assert code == 2
        assert stdout == "" and stderr.startswith("data error: inline feature list:")

    def test_needs_an_input_source(self, capsys, trained):
        code, _, stderr = run_cli(capsys, "predict", "--checkpoint", str(trained))
        assert code == 1
        assert "--csv" in stderr or "--features" in stderr

    def test_features_and_csv_together_are_config_error(self, capsys, tmp_path,
                                                        trained):
        # --csv was ignored
        features = ",".join(["0.25"] * load_checkpoint(trained).config.t_in)
        code, stdout, stderr = run_cli(
            capsys, "predict", "--checkpoint", str(trained), "--features",
            features, "--csv", str(tmp_path / "none.csv"))
        assert code == 1
        assert stdout == "" and "--features" in stderr and "--csv" in stderr


def child_env():
    # a child imports eened from where this process found it, which
    # pytest's pythonpath setting puts on sys.path but not in the env
    src = os.path.dirname(os.path.dirname(eened.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


NUMPY_ONLY_CHILD = """
import importlib, pkgutil, sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "pandas"):
            raise ModuleNotFoundError(f"blocked: {name}")

sys.meta_path.insert(0, Blocked())
import eened
for info in pkgutil.iter_modules(eened.__path__):
    importlib.import_module("eened." + info.name)
from eened.data import load_dataset, write_synthetic_public_csv
write_synthetic_public_csv(sys.argv[1], seed=0, n=10, t_in=4)
print(load_dataset(sys.argv[1], t_in=4).x.shape)
try:
    import scipy
except ModuleNotFoundError:
    print("scipy blocked")
"""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "eened.cli", "gradcheck", "--module", "pwff"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert result.returncode == 0
        assert result.stdout.startswith("pwff: pass")

    def test_toy_training_process_exits_cleanly(self, tmp_path):
        # a whole training run in a child process exits 0 and prints nothing
        # to stderr but its last line: no warning at interpreter shutdown
        out = tmp_path / "m.ckpt"
        result = subprocess.run(
            [sys.executable, "-m", "eened.cli", "train", "--toy", "--out", str(out),
             "--epochs", "2"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert result.returncode == 0, result.stderr
        assert result.stderr == f"checkpoint written to {out}\n"

    def test_cli_import_starts_no_blas_thread(self):
        # OpenBLAS started one thread per core when numpy loaded, which
        # multiplied with the eval threads
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU: BLAS starts no thread of its own")
        env = {k: v for k, v in child_env().items() if k not in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        count = ("import os, eened.cli, numpy; "
                 "print(len(os.listdir('/proc/self/task')))")
        result = subprocess.run([sys.executable, "-c", count], capture_output=True,
                                text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1\n"

    def test_every_module_runs_on_numpy_alone(self, tmp_path):
        # [project].dependencies names numpy only
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_CHILD, str(tmp_path / "s.csv")],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["(10, 4)", "scipy blocked"]
