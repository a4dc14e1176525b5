"""Seeded random specs: the invariants the design rests on, over shapes no fixture pins.

``SPECS`` is drawn from one seed: 1-3 steps, 0-3 encoder layers, 1-4
backbone layers of dense or lora kind, widths 1-33, every activation,
w8a16 / w8a8 / ``mixed`` policies, 8- and 16-bit factors, and 1-3
adapters, some spiked.  A valid spec must

* leave no ``quantize`` reading a ``requant``'s output, which either
  emits that quantize's levels or feeds the ``requant`` it heads;
* freeze to the same bytes twice, and once more when its passes run
  one at a time, each graph they return accepted by ``graph.validate``;
* serve every adapter with the runtime bit for bit equal to QuantSim;
* give each column block of a 2- and a 3-block fp run and QuantSim run
  the bits of its own run.

An invalid spec (a rank above a width, or no encoder and an input width
unlike the latent) must raise ``ShapeError`` or ``GraphError`` from
``build_bundle``, and nothing else.
"""

import random

import pytest
from conftest import compile_pass_by_pass

from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import quant as qt
from onegraph import runtime as rt
from onegraph import sensitivity as sv
from onegraph.errors import GraphError, ShapeError

ACTS = ("relu", "silu", "none")


def layer(rng, kind, width):
    rank = f" rank={rng.randint(1, 4)}" if kind == "lora" else ""
    return f"{kind} {width} {rng.choice(ACTS)}{rank}"


def draw(rng, index):
    """(spec text, policy, lora bits, adapter specs) of one random spec."""
    latent = rng.randint(1, 33)
    encoder = rng.randint(0, 3)
    inputs = rng.randint(1, 33) if encoder or rng.random() < 0.2 else latent
    lines = [f"name r{index}", f"steps {rng.randint(1, 3)}", f"seed {rng.randrange(1000)}",
             f"batch {rng.randint(1, 3)}", f"input {inputs}", f"cond {rng.randint(1, 4)}",
             f"latent {latent}", f"amplitude {rng.choice((0.2, 0.5, 0.9))}"]
    if encoder:
        lines.append("section encoder")
        lines += [layer(rng, "dense", rng.randint(1, 33)) for _ in range(encoder - 1)]
        lines.append(layer(rng, "dense", latent))
    backbone = rng.randint(1, 4)
    lines.append("section backbone")
    lines += [layer(rng, rng.choice(("dense", "lora")), rng.randint(1, 33))
              for _ in range(backbone - 1)]
    lines.append(layer(rng, rng.choice(("dense", "lora")), latent))
    lines.append("section decoder")
    lines += [layer(rng, "dense", rng.randint(1, 33)) for _ in range(rng.randint(0, 2))]
    policy = rng.choice(("w8a16", "w8a8", f"mixed:{rng.choice((25, 50, 75))}"))
    adapters = [ms.AdapterSpec(f"a{j}", seed=rng.randrange(1000), rank=rng.randint(1, 4),
                               amplitude=rng.choice((0.1, 0.4)), spike=rng.choice((0.0, 0.0, 1.5)))
                for j in range(rng.randint(1, 3))]
    return "\n".join(lines) + "\n", policy, rng.choice((8, 16)), adapters


_RNG = random.Random(2026)
SPECS = [draw(_RNG, i) for i in range(40)]


def build(text):
    """The bundle of a spec, or None when ``build_bundle`` refuses it as
    it may: with ``ShapeError`` or ``GraphError``."""
    try:
        return ms.build_bundle(ms.parse_model_spec(text))
    except (ShapeError, GraphError):
        return None


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_random_spec(index):
    text, policy, lora_bits, adapter_specs = SPECS[index]
    bundle = build(text)
    if bundle is None:
        return
    samples = ms.make_samples(bundle, 3, index)
    adapters = ([ms.build_adapter(bundle, a) for a in adapter_specs]
                if bundle.backbone.lora_nodes() else [])
    policy = qt.Policy.parse(policy)
    if adapters:
        profile = sv.unified_profile(bundle, adapters, samples[:2], policy, lora_bits=lora_bits,
                                     seed=index)
    else:
        profile = qt.calibrate(bundle, samples[:2], policy, lora_bits=lora_bits, seed=index)

    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    for _, g in frozen.graphs():
        requants = {n.output for n in g.nodes if n.kind == "requant"}
        assert not [n.id for n in g.nodes if n.kind == "quantize" and n.inputs[0] in requants]
    model = cp.freeze(frozen, profile, descriptors, name="r")
    again, again_descriptors = cp.optimize_for_freeze(bundle, profile)
    assert cp.freeze(again, profile, again_descriptors, name="r") == model
    stepwise, stepwise_descriptors = compile_pass_by_pass(bundle, profile)
    assert cp.freeze(stepwise, profile, stepwise_descriptors, name="r") == model

    session = rt.load_model(model)
    x, cond = samples[2]
    for adapter in adapters or [None]:
        if adapter is not None:
            rt.bind_lora(session, cp.pack_lora(adapter, descriptors, profile))
        want = qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=7)
        assert rt.infer(session, x, cond, seed=7).tobytes() == want.tobytes()

    adapter = adapters[0] if adapters else None
    seeds = (11, 3, 11)
    own = {"fp": [gr.execute_fp(bundle, x, c, adapter, noise_seed=s)
                  for (x, c), s in zip(samples, seeds)],
           "quantsim": [qt.execute_quantsim(bundle, profile, adapter, x, c, seed=s)
                        for (x, c), s in zip(samples, seeds)]}
    for blocks in (2, 3):
        xs, cs = gr.stack_samples(samples[:blocks])
        got = {"fp": gr.execute_fp(bundle, xs, cs, adapter, noise_seed=seeds[:blocks]),
               "quantsim": qt.execute_quantsim(bundle, profile, adapter, xs, cs, seed=seeds[:blocks])}
        for kind, out in got.items():
            for block, want in zip(gr.split_blocks(out, blocks), own[kind]):
                assert block.tobytes() == want.tobytes(), (kind, blocks)


def test_the_draw_holds_valid_and_invalid_specs():
    """So that neither half of ``test_random_spec`` is vacuous."""
    built = [build(text) for text, *_ in SPECS]
    valid = [b for b in built if b is not None]
    assert len(valid) >= 25 and len(valid) < len(SPECS)
    assert any(b.backbone.lora_nodes() for b in valid)
    assert any(not b.backbone.lora_nodes() for b in valid)
