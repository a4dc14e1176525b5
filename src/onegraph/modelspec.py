"""Textual descriptions of toy models and adapters.

Lets the command line build self-contained fixtures (seeded weights,
seeded adapters) without any external model zoo.  Model grammar, one
directive per line, ``#`` comments:

    name toy
    steps 2
    seed 7
    batch 1
    input 6
    cond 2
    latent 4
    amplitude 0.5
    section encoder
    dense 4 silu
    section backbone
    lora 8 relu rank=2
    lora 4 none rank=2
    section decoder
    dense 6 none

Backbone layers see the latent concatenated with the conditioning on
the feature axis; the last backbone layer must produce ``latent``
features so the denoising loop closes.  Adapter grammar:

    adapter style
    seed 11
    rank 2
    alpha 1.0
    amplitude 0.4
    spike 0.0
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import graph as gr
from . import tensor as tz
from .errors import GraphError, ModelSpecError
from .rng import Rng


@dataclass
class LayerSpec:
    kind: str            # "dense" | "lora"
    out_features: int
    act: str             # "relu" | "silu" | "none"
    rank: int = 0


@dataclass
class ModelSpec:
    name: str = "toy"
    steps: int = 1
    seed: int = 0
    batch: int = 1
    input_dim: int = 4
    cond_dim: int = 2
    latent_dim: int = 4
    amplitude: float = 0.5
    encoder: list = field(default_factory=list)
    backbone: list = field(default_factory=list)
    decoder: list = field(default_factory=list)


@dataclass
class AdapterSpec:
    adapter_id: str
    seed: int = 0
    rank: int = 2
    alpha: float = 1.0
    amplitude: float = 0.5
    spike: float = 0.0


def parse_model_spec(text: str) -> ModelSpec:
    spec = ModelSpec()
    section = None
    scalar_keys = {
        "steps": ("steps", int), "seed": ("seed", int), "batch": ("batch", int),
        "input": ("input_dim", int), "cond": ("cond_dim", int),
        "latent": ("latent_dim", int), "amplitude": ("amplitude", float),
    }
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "name":
                spec.name = parts[1]
            elif parts[0] in scalar_keys:
                attr, conv = scalar_keys[parts[0]]
                setattr(spec, attr, conv(parts[1]))
            elif parts[0] == "section":
                if parts[1] not in ("encoder", "backbone", "decoder"):
                    raise ModelSpecError(f"line {lineno}: unknown section {parts[1]!r}")
                section = parts[1]
            elif parts[0] in ("dense", "lora"):
                if section is None:
                    raise ModelSpecError(f"line {lineno}: layer outside a section")
                out_f = int(parts[1])
                act = parts[2] if len(parts) > 2 else "none"
                if act not in ("relu", "silu", "none"):
                    raise ModelSpecError(f"line {lineno}: unknown activation {act!r}")
                rank = 0
                for extra in parts[3:]:
                    if extra.startswith("rank="):
                        rank = int(extra[5:])
                if parts[0] == "lora" and rank < 1:
                    raise ModelSpecError(f"line {lineno}: lora layer needs rank=<r>")
                if parts[0] == "lora" and section != "backbone":
                    raise ModelSpecError(f"line {lineno}: lora layers belong to the backbone")
                getattr(spec, section).append(LayerSpec(parts[0], out_f, act, rank))
            else:
                raise ModelSpecError(f"line {lineno}: cannot parse {raw!r}")
        except (IndexError, ValueError) as exc:
            raise ModelSpecError(f"line {lineno}: cannot parse {raw!r} ({exc})") from exc
    if not spec.backbone:
        raise ModelSpecError("model needs at least one backbone layer")
    if spec.backbone[-1].out_features != spec.latent_dim:
        raise ModelSpecError("last backbone layer must produce `latent` features")
    if spec.encoder and spec.encoder[-1].out_features != spec.latent_dim:
        raise ModelSpecError("last encoder layer must produce `latent` features")
    return spec


def parse_adapter_spec(text: str) -> AdapterSpec:
    spec = None
    keys = {"seed": int, "rank": int, "alpha": float, "amplitude": float, "spike": float}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "adapter":
            spec = AdapterSpec(adapter_id=parts[1])
        elif spec is None:
            raise ModelSpecError(f"line {lineno}: adapter file must start with `adapter <id>`")
        elif parts[0] in keys:
            setattr(spec, parts[0], keys[parts[0]](parts[1]))
        else:
            raise ModelSpecError(f"line {lineno}: cannot parse {raw!r}")
    if spec is None:
        raise ModelSpecError("no adapter directive found")
    return spec


def _chain(rng: Rng, layers, in_features: int, start_tid: int, amplitude: float):
    """Build a dense/lora layer chain; returns (nodes, constants, out_tid, out_features)."""
    nodes = []
    constants = {}
    cur_tid = start_tid
    cur_f = in_features
    tid = start_tid + 1
    nid = 0
    for i, layer in enumerate(layers):
        w = rng.uniform((layer.out_features, cur_f), -amplitude, amplitude)
        w_tid, y_tid = tid, tid + 1
        tid += 2
        constants[w_tid] = w
        if layer.kind == "lora":
            nodes.append(gr.Node(nid, "lora_matmul", [w_tid, cur_tid], y_tid, {"rank": layer.rank}))
        else:
            nodes.append(gr.Node(nid, "matmul", [w_tid, cur_tid], y_tid))
        nid += 1
        cur_tid = y_tid
        cur_f = layer.out_features
        if layer.act != "none":
            a_tid = tid
            tid += 1
            nodes.append(gr.Node(nid, "activation", [cur_tid], a_tid, {"kind": layer.act}))
            nid += 1
            cur_tid = a_tid
    return nodes, constants, cur_tid, cur_f


def build_bundle(spec: ModelSpec) -> gr.ModelBundle:
    """Deterministic toy bundle from a model spec."""
    rng = Rng(spec.seed)
    b = spec.batch

    def simple_graph(layers, in_name, in_dim, tag):
        nodes, constants, out_tid, _ = _chain(rng.child(tag), layers, in_dim, 0, spec.amplitude)
        if not layers:
            out_tid = 0
        return gr.Graph(
            nodes=nodes,
            inputs=[gr.GraphInput(in_name, 0, (in_dim, b))],
            outputs=[("out", out_tid)],
            constants=constants,
        )

    encoder = simple_graph(spec.encoder, "x", spec.input_dim, "encoder")

    bb_rng = rng.child("backbone")
    concat_tid = 2
    nodes = [gr.Node(0, "concat", [0, 1], concat_tid, {"axis": 0})]
    chain_nodes, constants, out_tid, _ = _chain(
        bb_rng, spec.backbone, spec.latent_dim + spec.cond_dim, concat_tid, spec.amplitude)
    for n in chain_nodes:
        n.id += 1
    backbone = gr.Graph(
        nodes=nodes + chain_nodes,
        inputs=[gr.GraphInput("z", 0, (spec.latent_dim, b)),
                gr.GraphInput("cond", 1, (spec.cond_dim, b))],
        outputs=[("out", out_tid)],
        constants=constants,
    )

    decoder = simple_graph(spec.decoder, "z", spec.latent_dim, "decoder")

    bundle = gr.ModelBundle(encoder, backbone, decoder, spec.steps)
    gr.validate_bundle(bundle)
    return bundle


def build_adapter(bundle: gr.ModelBundle, spec: AdapterSpec) -> gr.LoRAAdapter:
    """Seeded factors for every adapter-capable layer of the bundle.

    ``spike`` plants one large-magnitude outlier per factor, producing
    the wide-dynamic-range tensors that stress a shared quantization
    range (the quantization-fragile fixture).
    """
    rng = Rng(spec.seed).child(f"adapter:{spec.adapter_id}")
    entries = {}
    for node in bundle.backbone.lora_nodes():
        w = bundle.backbone.constants.get(node.inputs[0])
        if w is None:
            raise GraphError(f"node {node.id}: lora_matmul weight must be a constant")
        d_out, d_in = w.shape
        r = min(spec.rank, int(node.attrs["rank"]))
        a = rng.uniform((d_out, r), -spec.amplitude, spec.amplitude)
        bfac = rng.uniform((r, d_in), -spec.amplitude, spec.amplitude)
        if spec.spike:
            a[0, 0] = np.float32(spec.spike)
            bfac[0, 0] = np.float32(spec.spike)
        entries[node.id] = gr.LoRAEntry(a, bfac, spec.alpha)
    return gr.LoRAAdapter(spec.adapter_id, entries)


# ---------------------------------------------------------------------------
# On-disk full-precision adapters (distillation output)


def save_adapter_dir(adapter: gr.LoRAAdapter, path):
    os.makedirs(path, exist_ok=True)
    lines = [f"adapter {adapter.adapter_id}"]
    for nid in sorted(adapter.entries):
        entry = adapter.entries[nid]
        tz.write_qtns(os.path.join(path, f"node{nid}.A.qtns"), entry.A)
        tz.write_qtns(os.path.join(path, f"node{nid}.B.qtns"), entry.B)
        lines.append(f"entry {nid} alpha {float(entry.alpha)!r}")
    with open(os.path.join(path, "adapter.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_adapter_dir(path) -> gr.LoRAAdapter:
    meta = os.path.join(path, "adapter.txt")
    if not os.path.exists(meta):
        raise ModelSpecError(f"{path} is not an adapter directory")
    adapter_id = None
    entries = {}
    with open(meta) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "adapter":
                adapter_id = parts[1]
            elif parts[0] == "entry":
                nid = int(parts[1])
                alpha = float(parts[3])
                a = tz.read_qtns(os.path.join(path, f"node{nid}.A.qtns"))
                bfac = tz.read_qtns(os.path.join(path, f"node{nid}.B.qtns"))
                entries[nid] = gr.LoRAEntry(a, bfac, alpha)
    if adapter_id is None:
        raise ModelSpecError(f"{meta} lacks an adapter id")
    return gr.LoRAAdapter(adapter_id, entries)


def load_adapter(path, bundle: gr.ModelBundle) -> gr.LoRAAdapter:
    """Adapter from either a spec file (generated) or a saved directory."""
    if os.path.isdir(path):
        return load_adapter_dir(path)
    if not os.path.isfile(path):
        raise ModelSpecError(f"no such adapter file or directory: {path}")
    with open(path) as fh:
        return build_adapter(bundle, parse_adapter_spec(fh.read()))


def make_samples(bundle: gr.ModelBundle, count: int, seed: int):
    """Seeded (x, cond) calibration samples matching the bundle shapes."""
    rng = Rng(seed).child("samples")
    x_shape = tuple(bundle.encoder.inputs[0].shape)
    c_shape = tuple(bundle.backbone.inputs[1].shape)
    return [(rng.uniform(x_shape, -1.0, 1.0), rng.uniform(c_shape, -1.0, 1.0))
            for _ in range(count)]
