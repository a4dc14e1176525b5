"""The command line: exit codes, written artifacts and error reporting.

Every command goes through ``cli.main`` in process, so a failure that
escapes as a traceback fails the test instead of printing it.
"""

import dataclasses
import struct
import time

import numpy as np
import pytest
from conftest import TOY_MODEL, copy_adapter
from test_formats import with_lora_bits

from onegraph import cli
from onegraph import compiler as cp
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import runtime as rt
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


def test_an_overflowing_qtns_header_is_a_usage_error(toy_files, tmp_path, capsys):
    bad = tmp_path / "bad.qtns"
    bad.write_bytes(b"QTNS" + struct.pack("<HBB4I", 1, 0, 4, *(65536,) * 4) + bytes(12))
    argv = ["run", "--model-bin", toy_files["model.quadm"], "--pack", toy_files["style.qlp"],
            "--x", str(bad), "--cond", toy_files["cond.qtns"], "--out", str(tmp_path / "y.qtns")]
    assert "truncated QTNS payload" in usage_error(argv, capsys)


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


@pytest.mark.parametrize("command", ("calibrate", "qss", "distill", "pipeline"))
def test_a_nan_sample_is_a_stage_error(command, files, tmp_path, toy_bundle, toy_profile, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for i, (x, cond) in enumerate(ms.make_samples(toy_bundle, 3, 5)):
        if i == 1:
            x[0, 0] = np.nan
        tz.write_qtns(str(data / f"s{i}.x.qtns"), x)
        tz.write_qtns(str(data / f"s{i}.cond.qtns"), cond)
    model, adapter = files("toy.spec", TOY_MODEL), files("style.adapter", ADAPTER)
    profile = files("profile.txt", qt.profile_to_text(toy_profile))
    out = tmp_path / "out"
    argv = {"calibrate": ["calibrate", "--model", model, "--adapter", adapter, "--out", str(out)],
            "qss": ["qss", "--model", model, "--adapters", adapter, "--profile", profile,
                    "--out", str(out)],
            "distill": ["distill", "--model", model, "--adapter", adapter, "--profile", profile,
                        "--out-adapter", str(out), "--trace", str(tmp_path / "t.csv")],
            "pipeline": ["pipeline", "--model", model, "--adapters", adapter, "--out", str(out)]}
    assert cli.main(argv[command] + ["--data", str(data)]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert "sample 1: x holds a NaN or an infinity" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("defect", ("factor", "alpha"))
def test_a_nan_adapter_is_a_stage_error(defect, toy_files, toy_adapter, tmp_path, capsys):
    adapter = copy_adapter(toy_adapter)
    entry = next(iter(adapter.entries.values()))
    if defect == "factor":
        entry.B[0, 0] = np.nan
    else:
        entry.alpha = np.nan
    ms.save_adapter_dir(adapter, str(tmp_path / "nan"))
    argv = ["pack-lora", "--model-bin", toy_files["model.quadm"], "--adapter", str(tmp_path / "nan"),
            "--out", str(tmp_path / "nan.qlp")]
    assert cli.main(argv) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert ("NaN" if defect == "factor" else "alpha nan") in err
    assert not (tmp_path / "nan.qlp").exists()


def test_stepless_model_is_a_usage_error(tmp_path, toy_bundle, toy_profile, capsys):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    path = tmp_path / "stepless.quadm"
    path.write_bytes(cp.freeze(dataclasses.replace(frozen, steps=0), toy_profile, descriptors,
                               name="toy"))
    assert "step count" in usage_error(["inspect", str(path)], capsys)


@pytest.mark.parametrize("command", ("inspect", "run"))
def test_a_version_1_model_is_a_usage_error(command, toy_files, tmp_path, capsys):
    """Model format version 1 held the graphs before the compiler fused them."""
    data = bytearray((tmp_path / "model.quadm").read_bytes())
    struct.pack_into("<H", data, 4, 1)
    path = tmp_path / "v1.quadm"
    path.write_bytes(bytes(data))
    argv = ["inspect", str(path)]
    if command == "run":
        argv = ["run", "--model-bin", str(path), "--x", toy_files["cond.qtns"],
                "--cond", toy_files["cond.qtns"], "--out", str(tmp_path / "y.qtns")]
    assert "unsupported QADM format version 1" in usage_error(argv, capsys)


def test_a_pack_header_width_unlike_its_slots_is_a_usage_error(toy_files, tmp_path, capsys):
    path = tmp_path / "bits3.qlp"
    with open(toy_files["style.qlp"], "rb") as fh:
        path.write_bytes(with_lora_bits(fh.read(), 3))
    assert "pack lora_bits 3, not its A/B 16/16" in usage_error(["inspect", str(path)], capsys)


def test_inspect_prints_each_files_own_version(toy_files, capsys):
    for name, head in (("model.quadm", "magic QADM version 5"), ("style.qlp", "magic QLPK version 2")):
        assert cli.main(["inspect", toy_files[name]]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == head


def test_config_fills_what_the_flags_leave_unset(files):
    """Flags win over the config file, and the file wins over the defaults."""
    config = files("og.cfg", "seed = 5\ntie-eps = 0.25\npolicy = w8a8\n")
    args = cli.build_parser().parse_args(["--config", config, "--seed", "9", "inspect", config])
    cli._settle_globals(args)
    assert (args.seed, args.tie_eps, args.policy, args.lora_bits) == (9, 0.25, "w8a8", 16)


@pytest.mark.parametrize("line", ("seed = abc", "tie_eps = x", "lora_bits = 1.5"))
def test_a_config_value_that_does_not_cast_is_a_usage_error(line, files, capsys):
    config = files("og.cfg", line + "\n")
    err = usage_error(["--config", config, "inspect", config], capsys)
    assert line.split()[0] in err


@pytest.mark.parametrize("key", ("seeed", "lora-bit"))
def test_an_unknown_config_key_is_a_usage_error(key, files, capsys):
    """A misspelt key is named, not dropped in favour of the default."""
    config = files("og.cfg", f"{key} = 3\n")
    err = usage_error(["--config", config, "inspect", config], capsys)
    assert f"unknown key {key!r}" in err


def test_a_profile_without_a_policy_line_is_a_usage_error(files, tmp_path, toy_profile, capsys):
    text = "".join(line + "\n" for line in qt.profile_to_text(toy_profile).splitlines()
                   if not line.startswith("policy "))
    argv = ["compile", "--model", files("toy.spec", TOY_MODEL),
            "--profile", files("profile.txt", text), "--out", str(tmp_path / "m.quadm")]
    assert "lacks a policy line" in usage_error(argv, capsys)
    assert not (tmp_path / "m.quadm").exists()


@pytest.mark.parametrize("command", ("compile",))
@pytest.mark.parametrize("lineno, bad", ((1, "policy w4a4"), (3, "backbone.w.3 {scale 0.1}")))
def test_a_malformed_profile_line_is_a_usage_error(command, lineno, bad, files, tmp_path, toy_profile,
                                                   capsys):
    lines = qt.profile_to_text(toy_profile).splitlines()
    lines[lineno - 1] = bad
    argv = [command, "--model", files("toy.spec", TOY_MODEL),
            "--profile", files("profile.txt", "\n".join(lines) + "\n"), "--out", str(tmp_path / "m.quadm")]
    err = usage_error(argv, capsys)
    assert f"profile line {lineno}: {bad!r}" in err


def test_a_name_past_the_string_limit_is_a_usage_error(files, tmp_path, toy_profile, capsys):
    """The format stores a string behind a 16-bit length."""
    argv = ["compile", "--model", files("toy.spec", TOY_MODEL), "--name", "n" * 70_000,
            "--profile", files("profile.txt", qt.profile_to_text(toy_profile)),
            "--out", str(tmp_path / "m.quadm")]
    assert "70000 bytes exceeds the format's 65535-byte limit" in usage_error(argv, capsys)
    assert not (tmp_path / "m.quadm").exists()


def test_bench_reports_a_swap_slower_than_a_reload(toy_files, monkeypatch, capsys):
    """The swap and reload medians are wall-clock times on a shared host, so
    ``bench`` prints them as measured: a swap that may be slower than a
    reload (here every bind into the command's own session sleeps 10 ms)
    is a result, not a failure."""
    bind, sessions = rt.bind_lora, []

    def slow_in_the_first_session(session, pack):
        sessions.append(session)
        if session is sessions[0]:
            time.sleep(0.01)
        bind(session, pack)

    monkeypatch.setattr(rt, "bind_lora", slow_in_the_first_session)
    pack = toy_files["style.qlp"]
    argv = ["bench", "--model", toy_files["model.quadm"], "--packs", pack, pack, "--reps", "3"]
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    medians = dict(line.split() for line in out.splitlines() if line.startswith(("swap_ms", "reload_ms")))
    assert sorted(medians) == ["reload_ms", "swap_ms"]
    assert all(float(ms) > 0 for ms in medians.values())
    assert "Traceback" not in err
