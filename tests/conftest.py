"""Shared fixtures: toy bundles, adapters, calibration data, profiles."""

import numpy as np
import pytest

import onegraph as og
from onegraph import compiler as cp
from onegraph import graph as gr
from onegraph import modelspec as ms
from onegraph import qparams as qp
from onegraph import quant as qt
from onegraph import sensitivity as sv

TOY_MODEL = """
name toy
steps 2
seed 7
input 6
cond 2
latent 4
section encoder
dense 4 silu
section backbone
lora 8 relu rank=2
lora 4 none rank=2
section decoder
dense 6 none
"""

# single-step, smooth-activation net used by the distillation tests
TWOLAYER_MODEL = """
name twolayer
steps 1
seed 5
input 4
cond 2
latent 4
section backbone
lora 6 silu rank=2
lora 4 none rank=2
section decoder
dense 4 none
"""

W64_MODEL = "\n".join(
    ["name w64", "steps 2", "seed 3", "batch 4", "input 64", "cond 4", "latent 64",
     "section encoder", "dense 64 relu", "section backbone"]
    + ["lora 64 relu rank=8"] * 3
    + ["lora 64 none rank=8", "section decoder", "dense 64 none"]) + "\n"

# Deep and narrow: 48 adapter slots make long chains of rewired tensors
# in the compiler passes.  A session plans no slot, so its backbone still
# has at most 3 tensors live at once.
D48_MODEL = "\n".join(
    ["name d48", "steps 2", "seed 17", "batch 2", "input 16", "cond 2", "latent 16",
     "amplitude 0.65", "section encoder", "dense 16 relu", "section backbone"]
    + ["lora 16 relu rank=4"] * 47
    + ["lora 16 none rank=4", "section decoder", "dense 16 none"]) + "\n"

# Every weight, the encoder's and the decoder's dense layer and both
# adapter layers, is 256 x 256: taller than one row tile of
# ``qparams.tiled_matmul``.
W256_MODEL = "\n".join(
    ["name w256", "steps 2", "seed 3", "batch 4", "input 256", "cond 4", "latent 256",
     "section encoder", "dense 256 relu", "section backbone", "lora 256 relu rank=8",
     "lora 256 none rank=8", "section decoder", "dense 256 none"]) + "\n"


@pytest.fixture(scope="session")
def toy_bundle():
    return ms.build_bundle(ms.parse_model_spec(TOY_MODEL))


@pytest.fixture(scope="session")
def toy_adapter(toy_bundle):
    return ms.build_adapter(
        toy_bundle, ms.AdapterSpec("style", seed=11, rank=2, alpha=1.0, amplitude=0.4))


@pytest.fixture(scope="session")
def toy_samples(toy_bundle):
    return ms.make_samples(toy_bundle, 4, 99)


@pytest.fixture(scope="session")
def toy_profile(toy_bundle, toy_adapter, toy_samples):
    return og.calibrate(toy_bundle, toy_samples, og.Policy("w8a16"),
                        adapter=toy_adapter, lora_bits=16, seed=0)


@pytest.fixture(scope="session")
def twolayer_bundle():
    return ms.build_bundle(ms.parse_model_spec(TWOLAYER_MODEL))


@pytest.fixture(scope="session")
def twolayer_adapter(twolayer_bundle):
    return ms.build_adapter(
        twolayer_bundle, ms.AdapterSpec("task", seed=13, rank=2, alpha=1.0, amplitude=0.6))


@pytest.fixture(scope="session")
def twolayer_samples(twolayer_bundle):
    return ms.make_samples(twolayer_bundle, 4, 42)


@pytest.fixture(scope="session")
def w64():
    """The W64_MODEL bundle, two rank-8 adapters, samples, unified profile."""
    bundle = ms.build_bundle(ms.parse_model_spec(W64_MODEL))
    adapters = [ms.build_adapter(bundle, ms.AdapterSpec(f"task{i}", seed=20 + i, rank=8,
                                                        amplitude=0.1))
                for i in range(2)]
    samples = ms.make_samples(bundle, 2, 31)
    profile = sv.unified_profile(bundle, adapters, samples, qt.Policy("w8a16"), seed=1)
    return bundle, adapters, samples, profile


@pytest.fixture(scope="session")
def d48():
    """The D48_MODEL bundle, two rank-4 adapters, samples, unified profile."""
    bundle = ms.build_bundle(ms.parse_model_spec(D48_MODEL))
    adapters = [ms.build_adapter(bundle, ms.AdapterSpec(f"task{i}", seed=40 + i, rank=4,
                                                        amplitude=0.1))
                for i in range(2)]
    samples = ms.make_samples(bundle, 2, 47)
    profile = sv.unified_profile(bundle, adapters, samples, qt.Policy("w8a16"), seed=2)
    return bundle, adapters, samples, profile


@pytest.fixture(scope="session")
def w256():
    """The W256_MODEL bundle, two rank-8 adapters, samples, unified profile."""
    bundle = ms.build_bundle(ms.parse_model_spec(W256_MODEL))
    adapters = [ms.build_adapter(bundle, ms.AdapterSpec(f"task{i}", seed=60 + i, rank=8,
                                                        amplitude=0.1))
                for i in range(2)]
    samples = ms.make_samples(bundle, 2, 61)
    profile = sv.unified_profile(bundle, adapters, samples, qt.Policy("w8a16"), seed=3)
    return bundle, adapters, samples, profile


def numbers(g):
    """Tensor id -> the dense number ``compiler.freeze`` writes it as."""
    return cp._tensor_numbers(g, {})


def slot_reference(q_b, p_b, q_a, p_a, alpha):
    """One slot's B, A and alpha as a ``qlora`` multiplies them, prepared
    slot by slot: q_b - z_b in fp32 (exact, as |q_b - z_b| < 2**24),
    ``qparams.dequantize_array`` of q_a, and alpha as a one-element fp32
    array.  Both factors' levels are range-checked, as a bind checks them."""
    return (qp.centered_levels(q_b, p_b).astype(np.float32), qp.dequantize_array(q_a, p_a),
            np.array((alpha,), np.float32))


def compile_pass_by_pass(bundle, shared):
    """``compiler.optimize_for_freeze`` run one pass at a time, with
    ``graph.validate`` on each graph it is given and on every graph a
    pass returns; returns (frozen-form bundle, descriptors) as it does."""
    def checked(g):
        gr.validate(g)
        return g

    qt.check_coverage(shared, bundle)
    graphs, descriptors = {}, []
    for role, g in bundle.graphs():
        g = checked(cp.constant_fold(checked(g)))
        g = checked(cp.dead_code_eliminate(g))
        g = checked(cp.materialize_quantsim(g, shared, role))
        g = checked(cp.scale_fold(g))
        if role == "backbone":
            g, descriptors = cp.rewrite_lora_as_input(g, shared)
            checked(g)
        g = checked(cp._fuse_requant(g))
        graphs[role] = checked(cp.dead_code_eliminate(g))
    return gr.ModelBundle(graphs["encoder"], graphs["backbone"], graphs["decoder"], bundle.steps), descriptors


def with_lora_bits(profile, bundle, adapters, bits):
    """``profile`` with its slot parameters calibrated at ``bits`` on ``adapters``."""
    weights = {**profile.weight_params, **qt.lora_slot_params(bundle, adapters, bits)}
    return og.QuantProfile(policy=profile.policy, lora_bits=bits, weight_params=weights,
                           act_params=dict(profile.act_params))


def copy_adapter(adapter, new_id=None):
    entries = {nid: og.LoRAEntry(e.A.copy(), e.B.copy(), e.alpha)
               for nid, e in adapter.entries.items()}
    return og.LoRAAdapter(new_id or adapter.adapter_id, entries)


def all16_profile(bundle, span=8.0):
    """Diagnostic profile: every tensor 16-bit over a generous range."""
    prof = og.QuantProfile(policy=og.Policy("w8a16"), lora_bits=16)
    for key in qt.required_keys(bundle):
        params = og.compute_quant_params(-span, span, 16)
        if ".a." in key:
            prof.act_params[key] = params
        else:
            prof.weight_params[key] = params
    return prof


def widened_profile(calibrated, mult=1.3, lora_bits=16):
    """Calibrated ranges scaled by `mult`: headroom without coarse quanta."""
    prof = og.QuantProfile(policy=calibrated.policy, lora_bits=lora_bits)
    for k, p in calibrated.act_params.items():
        w = max(abs(p.repr_lo), abs(p.repr_hi)) * mult
        prof.act_params[k] = og.compute_quant_params(-w, w, 16)
    for k, p in calibrated.weight_params.items():
        w = max(abs(p.repr_lo), abs(p.repr_hi)) * mult
        prof.weight_params[k] = og.compute_quant_params(-w, w, 16 if ".lora." in k else 8)
    return prof


def rel_err(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64)))) / scale
