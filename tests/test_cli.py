"""Command-line interface: exit codes, stream discipline, and end-to-end
flows on the built-in synthetic dataset."""

import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import eened
from eened.cli import main
from eened.data import TRAIN, make_toy_dataset
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
        assert "n_heads" in stderr and "d_model" in stderr.replace(" ", "_") or \
            "head_dim" in stderr
        assert stdout == ""

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

    def test_determinism_across_runs(self, capsys, tmp_path):
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "train", "--toy", "--out", str(out),
                                 "--seed", "9", "--epochs", "2")
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


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
        # the toy checkpoint has d_model=32; the default n_heads and head_dim
        # would not fit it, but eval takes them from the checkpoint
        base = run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--seed", "7")
        assert base[0] == 0
        assert run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--seed", "7", "--d-model", "32") == base
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d_model=32\nn_blocks=1\nepochs=6\n")
        assert run_cli(capsys, "eval", "--checkpoint", str(trained), "--toy",
                       "--seed", "7", "--config", str(cfg)) == base

    def test_model_option_differing_from_the_checkpoint_is_config_error(
            self, capsys, trained):
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(trained), "--toy",
            "--seed", "7", "--n-blocks", "3")
        assert code == 1
        assert stdout == ""
        assert "n_blocks is 3 here but 1 in the checkpoint" in stderr

    def test_garbage_checkpoint_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code, _, stderr = run_cli(capsys, "eval", "--checkpoint", str(bad), "--toy")
        assert code == 2
        assert "magic" in stderr


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

    def test_unknown_module_is_config_error_exit(self, capsys):
        code, _, stderr = run_cli(capsys, "gradcheck", "--module", "typo")
        assert code == 3
        assert "typo" in stderr


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

    def test_needs_an_input_source(self, capsys, trained):
        code, _, stderr = run_cli(capsys, "predict", "--checkpoint", str(trained))
        assert code == 1
        assert "--csv" in stderr or "--features" in stderr


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

    def test_every_module_runs_on_numpy_alone(self, tmp_path):
        # [project].dependencies names numpy only
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_CHILD, str(tmp_path / "s.csv")],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["(10, 4)", "scipy blocked"]
