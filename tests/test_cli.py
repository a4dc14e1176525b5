"""The command line: exit codes, written artifacts and error reporting.

Every command goes through ``cli.main`` in process, so a failure that
escapes as a traceback fails the test instead of printing it.
"""

import dataclasses

import numpy as np
import pytest
from conftest import TOY_MODEL

from onegraph import cli
from onegraph import compiler as cp
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import tensor as tz

# Activations vanish through 64 layers at amplitude 0.05, so calibration
# meets ranges whose fp32 scale would underflow without the floor.
VANISHING_MODEL = "\n".join(
    ["name vanishing", "steps 1", "seed 3", "batch 4", "input 64", "cond 4", "latent 64",
     "amplitude 0.05", "section encoder", "dense 64 relu", "section backbone"]
    + ["lora 64 relu rank=8"] * 63
    + ["lora 64 none rank=8", "section decoder", "dense 64 none"]) + "\n"

ADAPTER = "adapter style\nseed 11\nrank 2\nalpha 1.0\namplitude 0.4\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_calibrate_floors_vanishing_scales(files, tmp_path):
    out = tmp_path / "profile.txt"
    argv = ["calibrate", "--model", files("vanishing.spec", VANISHING_MODEL),
            "--synthetic-data", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    profile = qt.profile_from_text(out.read_text())
    scales = [p.scale for p in {**profile.weight_params, **profile.act_params}.values()]
    assert min(scales) == qp.MIN_SCALE   # floored, not underflowed


@pytest.fixture
def corrupt_model(tmp_path, toy_bundle, toy_profile):
    """The toy ``.quadm`` with one payload byte changed (checksum left stale)."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    data = bytearray(cp.freeze(frozen, toy_profile, descriptors, name="toy"))
    data[len(data) // 2] ^= 0x5A
    path = tmp_path / "corrupt.quadm"
    path.write_bytes(bytes(data))
    return str(path)


@pytest.fixture
def toy_files(tmp_path, toy_bundle, toy_profile, toy_adapter, toy_samples):
    """Paths of the toy ``.quadm``, a ``.qlp`` for it and one sample's cond."""
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    paths = {}
    for name, data in (("model.quadm", cp.freeze(frozen, toy_profile, descriptors, name="toy")),
                       ("style.qlp", cp.pack_lora(toy_adapter, descriptors, toy_profile)),
                       ("cond.qtns", tz.qtns_bytes(toy_samples[0][1]))):
        (tmp_path / name).write_bytes(data)
        paths[name] = str(tmp_path / name)
    return paths


@pytest.mark.parametrize("command", ("inspect", "run"))
def test_corrupt_model_is_a_usage_error(command, corrupt_model, tmp_path, toy_samples, capsys):
    if command == "inspect":
        argv = ["inspect", corrupt_model]
    else:
        x, cond = toy_samples[0]
        tz.write_qtns(str(tmp_path / "x.qtns"), x)
        tz.write_qtns(str(tmp_path / "cond.qtns"), cond)
        argv = ["run", "--model-bin", corrupt_model, "--x", str(tmp_path / "x.qtns"),
                "--cond", str(tmp_path / "cond.qtns"), "--out", str(tmp_path / "y.qtns")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_pipeline_writes_the_model(files, tmp_path):
    out = tmp_path / "out"
    argv = ["pipeline", "--model", files("toy.spec", TOY_MODEL),
            "--adapters", files("style.adapter", ADAPTER),
            "--synthetic-data", "2", "--steps", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert cp.load_compiled((out / "model.quadm").read_bytes()).name == "toy"


def test_qss_with_one_adapter_is_rule_single(files, tmp_path, toy_profile):
    out = tmp_path / "qss.txt"
    argv = ["qss", "--model", files("toy.spec", TOY_MODEL),
            "--profile", files("profile.txt", qt.profile_to_text(toy_profile)),
            "--adapters", files("style.adapter", ADAPTER),
            "--synthetic-data", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    report = out.read_text().splitlines()
    assert "rule single" in report and "anchor style" in report


def usage_error(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("policy", ("w4a4", "mixed:half", "mixed:150"))
def test_unknown_policy_is_a_usage_error(policy, files, tmp_path, capsys):
    argv = ["--policy", policy, "calibrate", "--model", files("toy.spec", TOY_MODEL),
            "--synthetic-data", "2", "--out", str(tmp_path / "profile.txt")]
    assert "--policy" in usage_error(argv, capsys)
    assert not (tmp_path / "profile.txt").exists()


@pytest.mark.parametrize("command", ("distill", "pipeline"))
@pytest.mark.parametrize("flag, message", ((["--steps", "0"], "steps"),
                                           (["--lr", "-1"], "learning rate"),
                                           (["--lr", "nan"], "learning rate"),
                                           (["--lr", "inf"], "learning rate"),
                                           (["--lambda-task", "nan"], "lambda_task")))
def test_refused_distill_setting_is_a_usage_error(command, flag, message, files, tmp_path,
                                                  toy_profile, capsys):
    model = files("toy.spec", TOY_MODEL)
    adapter = files("style.adapter", ADAPTER)
    if command == "distill":
        argv = ["distill", "--model", model, "--adapter", adapter,
                "--profile", files("profile.txt", qt.profile_to_text(toy_profile)),
                "--out-adapter", str(tmp_path / "tuned"), "--trace", str(tmp_path / "t.csv")]
    else:
        argv = ["pipeline", "--model", model, "--adapters", adapter, "--out", str(tmp_path / "out")]
    argv += ["--synthetic-data", "2", *flag]
    assert message in usage_error(argv, capsys)


@pytest.mark.parametrize("missing", ("x", "workload-dir", "directory", "adapter"))
def test_missing_input_is_a_usage_error(missing, toy_files, files, tmp_path, capsys):
    absent = str(tmp_path / "absent")
    if missing == "adapter":
        argv = ["calibrate", "--model", files("toy.spec", TOY_MODEL), "--synthetic-data", "2",
                "--adapter", absent, "--out", str(tmp_path / "profile.txt")]
    elif missing == "x":
        argv = ["run", "--model-bin", toy_files["model.quadm"], "--pack", toy_files["style.qlp"],
                "--x", absent, "--cond", toy_files["cond.qtns"], "--out", str(tmp_path / "y.qtns")]
    elif missing == "workload-dir":
        argv = ["bench", "--model", toy_files["model.quadm"], "--packs", toy_files["style.qlp"],
                "--workload-dir", absent]
    else:
        absent = str(tmp_path)   # a directory where a file is expected
        argv = ["inspect", absent]
    assert absent in usage_error(argv, capsys)


def test_a_nan_input_is_a_stage_error(toy_files, tmp_path, toy_samples, capsys):
    x = toy_samples[0][0].copy()
    x[2, 0] = np.nan
    tz.write_qtns(str(tmp_path / "nan.qtns"), x)
    argv = ["run", "--model-bin", toy_files["model.quadm"], "--pack", toy_files["style.qlp"],
            "--x", str(tmp_path / "nan.qtns"), "--cond", toy_files["cond.qtns"],
            "--out", str(tmp_path / "y.qtns")]
    assert cli.main(argv) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NaN" in err and "Traceback" not in err
    assert not (tmp_path / "y.qtns").exists()


def test_stepless_model_is_a_usage_error(tmp_path, toy_bundle, toy_profile, capsys):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    path = tmp_path / "stepless.quadm"
    path.write_bytes(cp.freeze(dataclasses.replace(frozen, steps=0), toy_profile, descriptors,
                               name="toy"))
    assert "step count" in usage_error(["inspect", str(path)], capsys)
