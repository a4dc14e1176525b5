"""Command line driving the full deployment pipeline.

Subcommands: calibrate, qss, distill, compile, pack-lora, run, bench,
inspect, pipeline.  Exit codes: 0 success, 1 stage failure, 2 usage or
input error.  Every command is deterministic given --seed, so reruns
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import compiler as cp
from . import distill as dst
from . import graph as gr
from . import modelspec as ms
from . import quant as qt
from . import runtime as rt
from . import sensitivity as sv
from . import tensor as tz
from .errors import FormatError, ModelSpecError, OneGraphError

EXIT_OK = 0
EXIT_STAGE = 1
EXIT_USAGE = 2

_DEFAULTS = {"seed": 0, "policy": "w8a16", "lora_bits": 16, "tie_eps": 0.05}


BATCH_HELP = ("samples per distillation step, default every sample; a step runs them as one "
              "QuantSim run, so its tape holds all of them at once")


class UsageError(Exception):
    pass


def _require_file(path):
    if not os.path.isfile(path):
        raise UsageError(f"no such file: {path}")
    return path


def _read(path, mode="r"):
    with open(_require_file(path), mode) as fh:
        return fh.read()


def _read_qtns(path):
    return tz.read_qtns(_require_file(path))


def _load_config(path):
    """``key = value`` lines for the global flags; ``-`` in a key reads as ``_``."""
    cfg = {}
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in _DEFAULTS:
            raise UsageError(f"--config: unknown key {key!r}; the keys are {', '.join(_DEFAULTS)}")
        cfg[name] = value
    return cfg


def _settle_globals(args):
    """Fill unset global flags from the config file, then hard defaults."""
    cfg = _load_config(args.config) if args.config else {}
    casts = {"seed": int, "policy": str, "lora_bits": int, "tie_eps": float}
    for key, cast in casts.items():
        if getattr(args, key) is None:
            try:
                setattr(args, key, cast(cfg[key]) if key in cfg else _DEFAULTS[key])
            except ValueError as exc:
                raise UsageError(f"--config: {key} = {cfg[key]!r} is not {cast.__name__}") from exc
    try:
        args.policy_obj = qt.Policy.parse(args.policy)
    except ValueError as exc:
        raise UsageError(f"--policy: {exc}") from exc
    if args.lora_bits not in (8, 16):
        raise UsageError(f"--lora-bits must be 8 or 16, got {args.lora_bits}")


def _load_bundle(args):
    spec = ms.parse_model_spec(_read(args.model))
    if args.seed != _DEFAULTS["seed"]:
        spec.seed = args.seed
    return spec, ms.build_bundle(spec)


def _sample_stems(data_dir):
    """Stems of the ``<stem>.x.qtns`` files in a sample directory."""
    if not data_dir or not os.path.isdir(data_dir):
        raise UsageError(f"data directory not found: {data_dir}")
    stems = sorted(
        f[:-len(".x.qtns")] for f in os.listdir(data_dir) if f.endswith(".x.qtns"))
    if not stems:
        raise UsageError(f"data directory {data_dir} holds no *.x.qtns samples")
    return stems


def _load_samples(bundle, args, need_targets=False):
    if getattr(args, "synthetic_data", None):
        samples = ms.make_samples(bundle, args.synthetic_data, args.seed)
        if need_targets:
            return [(x, c, None) for x, c in samples]
        return samples
    data_dir = args.data
    samples = []
    for stem in _sample_stems(data_dir):
        x = _read_qtns(os.path.join(data_dir, f"{stem}.x.qtns"))
        cond = _read_qtns(os.path.join(data_dir, f"{stem}.cond.qtns"))
        if need_targets:
            tpath = os.path.join(data_dir, f"{stem}.target.qtns")
            target = tz.read_qtns(tpath) if os.path.exists(tpath) else None
            samples.append((x, cond, target))
        else:
            samples.append((x, cond))
    return samples


def _distill_config(args, samples):
    """The distillation flags as a DistillConfig; a value it refuses is a usage error."""
    try:
        return dst.DistillConfig(steps=args.steps, learning_rate=args.lr,
                                 lambda_task=args.lambda_task,
                                 batch=args.batch or len(samples), seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_adapters(bundle, paths):
    adapters = [ms.load_adapter(p, bundle) for p in paths]
    ids = [a.adapter_id for a in adapters]
    if len(set(ids)) != len(ids):
        raise UsageError(f"duplicate adapter ids: {ids}")
    return adapters


def _write(path, data):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Commands


def cmd_calibrate(args):
    _, bundle = _load_bundle(args)
    samples = _load_samples(bundle, args)
    adapter = ms.load_adapter(args.adapter, bundle) if args.adapter else None
    profile = qt.calibrate(bundle, samples, args.policy_obj,
                           adapter=adapter, lora_bits=args.lora_bits, seed=args.seed)
    _write(args.out, qt.profile_to_text(profile))
    return EXIT_OK


def cmd_qss(args):
    _, bundle = _load_bundle(args)
    samples = _load_samples(bundle, args)
    adapters = _load_adapters(bundle, args.adapters)
    profile = qt.profile_from_text(_read(args.profile))
    scores = {a.adapter_id: sv.qss(bundle, a, profile, samples, seed=args.seed)
              for a in adapters}
    _write(args.out, sv.qss_report(scores, args.tie_eps).to_text())
    return EXIT_OK


def cmd_distill(args):
    _, bundle = _load_bundle(args)
    samples = _load_samples(bundle, args, need_targets=True)
    cfg = _distill_config(args, samples)
    adapter = ms.load_adapter(args.adapter, bundle)
    shared = qt.profile_from_text(_read(args.profile))
    tuned, trace = dst.finetune_adapter(bundle, adapter, shared, samples, cfg)
    ms.save_adapter_dir(tuned, args.out_adapter)
    print(f"wrote {args.out_adapter}")
    _write(args.trace, trace.to_csv())
    return EXIT_OK


def cmd_compile(args):
    spec, bundle = _load_bundle(args)
    shared = qt.profile_from_text(_read(args.profile))
    frozen, descriptors = cp.optimize_for_freeze(bundle, shared)
    data = cp.freeze(frozen, shared, descriptors, name=args.name or spec.name,
                     creation_seed=args.seed)
    _write(args.out, data)
    return EXIT_OK


def cmd_pack_lora(args):
    model = cp.load_compiled(_read(args.model_bin, "rb"))
    if not os.path.isdir(args.adapter):
        raise UsageError("pack-lora expects a saved adapter directory; "
                         "use `pipeline` for spec-file adapters")
    _write(args.out, cp.pack_lora(ms.load_adapter_dir(args.adapter), model.descriptors))
    return EXIT_OK


def cmd_run(args):
    session = rt.load_model(_read(args.model_bin, "rb"))
    if args.pack:
        rt.bind_lora(session, _read(args.pack, "rb"))
    x = _read_qtns(args.x)
    cond = _read_qtns(args.cond)
    out = rt.infer(session, x, cond, seed=args.seed)
    _write(args.out, tz.qtns_bytes(out))
    return EXIT_OK


def cmd_bench(args):
    session = rt.load_model(_read(args.model_bin, "rb"))
    packs = [_read(p, "rb") for p in args.packs]
    if args.workload_dir:
        workload = [
            (_read_qtns(os.path.join(args.workload_dir, f"{s}.x.qtns")),
             _read_qtns(os.path.join(args.workload_dir, f"{s}.cond.qtns")))
            for s in _sample_stems(args.workload_dir)
        ]
    else:
        bb = session.model.graphs["encoder"].inputs[0]
        cb = session.model.graphs["backbone"].inputs[1]
        workload = [(np.zeros(bb.shape, np.float32), np.zeros(cb.shape, np.float32))]
    report = rt.kpi(session, packs, workload)
    print(report.to_text(), end="")
    if args.out:
        _write(args.out, report.to_text())
        _write(args.out + ".csv", report.to_csv())
    if len(packs) >= 2 and args.reps >= 3:
        swap_ms, reload_ms = rt.swap_benchmark(session, packs[0], packs[1], args.reps)
        print(f"swap_ms {swap_ms!r}")
        print(f"reload_ms {reload_ms!r}")
    return EXIT_OK


def cmd_inspect(args):
    path = args.path
    data = _read(path, "rb")
    if data[:4] == cp.MODEL_MAGIC:
        model = cp.load_compiled(data)
        print(f"magic QADM version {cp.FORMAT_VERSIONS[cp.MODEL_MAGIC]}")
        print(f"name {model.name}")
        print(f"creation_seed {model.creation_seed}")
        print(f"steps {model.steps}")
        print(f"file_bytes {len(data)}")
        for role in ("encoder", "backbone", "decoder"):
            g = model.graphs[role]
            wbytes = sum(v.nbytes for v in g.constants.values())
            print(f"{role}_nodes {len(g.nodes)} {role}_const_bytes {wbytes} "
                  f"section_bytes {len(cp._pack_graph(g))}")
        print(f"descriptors {len(model.descriptors)}")
        for d in model.descriptors:
            print(f"  slot {d.slot_id} node {d.target_node_id} "
                  f"A{list(d.a_shape)} B{list(d.b_shape)} bits {d.bits}")
        if args.dump:
            for role in ("encoder", "backbone", "decoder"):
                print(f"-- {role}")
                print(gr.dump_graph(model.graphs[role]), end="")
    elif data[:4] == cp.PACK_MAGIC:
        pack = cp.unpack_lora(data)
        print(f"magic QLPK version {cp.FORMAT_VERSIONS[cp.PACK_MAGIC]}")
        print(f"adapter_id {pack.adapter_id}")
        print(f"lora_bits {pack.lora_bits}")
        print(f"file_bytes {len(data)}")
        for sid in sorted(pack.slots):
            s = pack.slots[sid]
            payload = s.a_q.nbytes + s.b_q.nbytes
            print(f"  slot {sid} rank {s.rank} alpha {s.alpha!r} payload_bytes {payload}")
    elif data[:4] == tz.QTNS_MAGIC:
        arr = tz.read_qtns(path)
        print(f"magic QTNS dtype {tz.dtype_name(arr)} shape {list(arr.shape)}")
    else:
        text = data.decode("utf-8", errors="replace")
        if text.startswith("policy"):
            print(text, end="")
        else:
            spec = ms.parse_model_spec(text)
            bundle = ms.build_bundle(spec)
            for role, g in bundle.graphs():
                print(f"-- {role}")
                print(gr.dump_graph(g), end="")
    return EXIT_OK


def cmd_pipeline(args):
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    stage = "setup"
    try:
        spec, bundle = _load_bundle(args)
        adapters = _load_adapters(bundle, args.adapters)
        samples = _load_samples(bundle, args)
        cfg = _distill_config(args, samples)

        stage = "calibrate+qss"
        # calibration and distillation both take --seed, so calibration's
        # fp outputs are the distillation teachers
        teachers = {}
        shared, report = sv.build_shared_profile(
            bundle, adapters, samples, args.policy_obj, args.tie_eps,
            lora_bits=args.lora_bits, seed=args.seed, outputs=teachers)
        _write(os.path.join(out_dir, "profile.txt"), qt.profile_to_text(shared))
        _write(os.path.join(out_dir, "qss_report.txt"), report.to_text())

        stage = "distill"
        exclude = {report.anchor} if report.anchor != sv.UNIFIED else set()
        distill_data = [(x, c, None) for x, c in samples]
        results = dst.align_adapters(bundle, adapters, shared, distill_data, cfg, exclude=exclude,
                                     teachers=teachers)
        tuned = []
        for adapter, trace in results:
            tuned.append(adapter)
            if trace is not None:
                _write(os.path.join(out_dir, f"distill_{adapter.adapter_id}.csv"), trace.to_csv())

        stage = "compile"
        frozen, descriptors = cp.optimize_for_freeze(bundle, shared)
        model_bytes = cp.freeze(frozen, shared, descriptors, name=spec.name,
                                creation_seed=args.seed)
        _write(os.path.join(out_dir, "model.quadm"), model_bytes)

        stage = "pack"
        pack_bytes = []
        for adapter in tuned:
            pb = cp.pack_lora(adapter, descriptors)
            pack_bytes.append(pb)
            _write(os.path.join(out_dir, f"{adapter.adapter_id}.qlp"), pb)

        stage = "run"
        session = rt.load_model(model_bytes)
        rt.bind_lora(session, pack_bytes[0])
        x, cond = samples[0]
        out = rt.infer(session, x, cond, seed=args.seed)
        _write(os.path.join(out_dir, "sample_output.qtns"), tz.qtns_bytes(out))

        stage = "bench"
        report = rt.kpi(session, pack_bytes, samples[: min(len(samples), 2)])
        _write(os.path.join(out_dir, "kpi.txt"), report.to_text())
        _write(os.path.join(out_dir, "kpi.csv"), report.to_csv())
        print(f"memory_ratio {report.memory_ratio!r}")
    except (OneGraphError, OSError, ValueError) as exc:
        print(f"pipeline failed at stage {stage}: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(prog="onegraph",
                                 description="one frozen graph, many adapters")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--policy", default=None, help="w8a16 | w8a8 | mixed:<x>")
    ap.add_argument("--lora-bits", dest="lora_bits", type=int, default=None)
    ap.add_argument("--tie-eps", dest="tie_eps", type=float, default=None)
    ap.add_argument("--config", default=None, help="key=value defaults; flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="derive a quantization profile")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.add_argument("--synthetic-data", type=int, default=0)
    p.add_argument("--adapter", help="adapter bound during calibration")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("qss", help="score adapter sensitivity under a profile")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.add_argument("--synthetic-data", type=int, default=0)
    p.add_argument("--profile", required=True)
    p.add_argument("--adapters", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_qss)

    p = sub.add_parser("distill", help="align one adapter to a shared profile")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.add_argument("--synthetic-data", type=int, default=0)
    p.add_argument("--adapter", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--lambda-task", dest="lambda_task", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=0, help=BATCH_HELP)
    p.add_argument("--out-adapter", dest="out_adapter", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("compile", help="optimize and freeze a model")
    p.add_argument("--model", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("pack-lora", help="pack an adapter for a compiled model")
    p.add_argument("--model-bin", dest="model_bin", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pack_lora)

    p = sub.add_parser("run", help="load, bind, infer")
    p.add_argument("--model-bin", dest="model_bin", required=True)
    p.add_argument("--pack")
    p.add_argument("--x", required=True)
    p.add_argument("--cond", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="KPI and swap measurements")
    p.add_argument("--model", dest="model_bin", required=True)
    p.add_argument("--packs", nargs="+", required=True)
    p.add_argument("--reps", type=int, default=11)
    p.add_argument("--workload-dir", dest="workload_dir")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="print artifact headers and sections")
    p.add_argument("path")
    p.add_argument("--dump", action="store_true", help="also dump graph nodes")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("pipeline", help="calibrate, score, distill, compile, pack, run, bench")
    p.add_argument("--model", required=True)
    p.add_argument("--adapters", nargs="+", required=True)
    p.add_argument("--data")
    p.add_argument("--synthetic-data", type=int, default=0)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--lambda-task", dest="lambda_task", type=float, default=0.0)
    p.add_argument("--batch", type=int, default=0, help=BATCH_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _settle_globals(args)
        return args.func(args)
    except (UsageError, FormatError, ModelSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OneGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
