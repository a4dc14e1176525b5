"""End-to-end bit pin.

Three invariants over the whole chain (calibrate, compile, freeze, pack,
load, bind, infer):

* the served output equals QuantSim on the uncompiled bundle, bit for
  bit;
* the ``.quadm`` bytes, every ``.qlp`` and every served output hash to
  pinned digests, so a change that moves a single bit anywhere in the
  chain fails here.  The toy and w64 ``.qlp`` digests were recorded with
  the reference per-k matmul loop; the d48 ``.qlp`` digests, whose 48
  adapter slots make long rewire chains, with the compiler passes that
  rescanned the node list for every rewire and the planner that
  rescanned the live set.  The ``.quadm`` digests were re-recorded five
  times: when the model format went to version 2 and began to hold the
  fused graphs in the passes' node order, when version 3 stopped holding
  the profile text, when version 4 numbered the tensors densely and let
  a ``requant`` emit the next layer's levels, and when the LoRA-as-input
  rewrite moved after ``scale_fold`` and made each adapter layer its
  ``qlora`` directly.  That last change moved node ids alone: each
  ``qlora`` keeps its layer's id, and the nodes the passes add are
  numbered from a lower start.  The files kept their lengths and decode
  to the same graphs but for those ids.  They were re-recorded a fifth
  time when version 5 stored each graph as column tables; the graphs
  they decode to did not change.  No ``.qlp`` or output digest moved
  any of those times.
* what every ``.qlp`` decodes to, whatever its layout, hashes to a
  pinned level digest (``level_digest``).  These were recorded from
  the version-1 packs, whose byte digests trace back as told above,
  just before pack format version 2 replaced the
  per-slot records and tensor headers with one record table and one
  level block.  That change re-recorded the ``.qlp`` byte digests
  alone; the level digests hold the anchor.

The distillation digest pins the forward and backward products of the
gradient tape the same way.

Which product semantics recorded which output digest: the toy and w64
outputs, recorded when every product was the sequential fp32
``tensor.matmul`` of dequantized operands, hold unchanged under the exact
integer products of ``qparams.int_matmul``.  The d48 outputs and the
distillation digest moved with that change and were recorded under the
integer products.
"""

import hashlib
import struct

import numpy as np

from onegraph import compiler as cp
from onegraph import distill as dst
from onegraph import quant as qt
from onegraph import runtime as rt

# SHA-256 digests recorded before the change each one guards (see above).
PINNED = {
    "toy": {
        "model": "a3899bee08b6df1f3191d4d6666e74fb4ebfca47c937a19b620238670ace5245",
        "packs": ["c299a9b490f6a7b734a7c6bdba27fbd85b3c139238bf3b6980fff76675377eea"],
        "levels": ["d4c85ac7b424b5f5aac6153110e6afd4dfc887c0441c1216d9239c270b73a6c8"],
        "outputs": ["ea94f1bf4ff6a618dc774145a21b3c1f36c3b4a06de575609787f52a495815ba"],
    },
    "w64": {
        "model": "9847c89fb73bdc13bb8c9281fa28f7dbe23e3b5af9efd0045f6d2abe7624808f",
        "packs": ["03cd79794278bc9bf8ab1511bfcb221dc4b4f7509fde41edf8a0eccd4e267edd",
                  "fb30d97e638d212e4c44dfde2d038198eee0062ab1facd8900e1d202eddb40bb"],
        "levels": ["25ec07678b649e01f19d80590601cfd194fea8e53bc1f9134714589b4e713452",
                   "01af098a6c47e38168270eed37c08a36d58be6eb601faa8ddba3bcfce514e68d"],
        "outputs": ["374244fdbd6bdfdfca3db02b7dbb26614cba7bb69417c1aa548858e73d3754fe",
                    "cf7c9024c01ad77d89b64de12c890b6b2f8c4a75236b39d0271f443f5e18a02e"],
    },
    "d48": {
        "model": "3e3a1bae626148d9bc00f325859ec9a826ca40999ca5678b8b16c76137cb99ef",
        "packs": ["72ddc979367f3cda4d3c96a3da132910fc7f2c8068f03340fa1fe3831078e4f7",
                  "17eef8d0c31b32fb5a4cf0a142f932e41cf74e0dccba0ff1b2715de552ebbf1d"],
        "levels": ["b1974cffd1e3b189d3ff99e9d7b6ad4cb29e57b1bbfc8ddf89d0ea0363537bf4",
                   "1c41523e1fd846d4930ac035e5e0ee99454703893fa8b52faf4195c5e1d44838"],
        "outputs": ["bedcd70ed1e633d41d358bccf4bf12114e55baea07be5fd0fb967fc4b327e628",
                    "06802acbae4f47b2322405195628176494c1f178f362090928ca8af0ec9e862e"],
    },
    "distill": "e7e3f05de17a89f7924a366ab36b6fef111e8687ab23bbbb5af8be0b3065a673",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def level_digest(pack: bytes) -> str:
    """A digest of what a pack decodes to, whatever its layout: per slot,
    in ascending id, the id, rank and fp32 alpha, then the A and B levels
    with their shapes, each level as a little-endian int32."""
    h = hashlib.sha256()
    decoded = cp.unpack_lora(pack)
    for sid in sorted(decoded.slots):
        s = decoded.slots[sid]
        h.update(struct.pack("<II", sid, s.rank) + np.float32(s.alpha).tobytes())
        for q in (s.a_q, s.b_q):
            h.update(struct.pack("<II", *q.shape) + q.astype("<i4").tobytes())
    return h.hexdigest()


def serve(bundle, profile, adapters, x, cond, seed):
    """Compile once, then bind and infer each adapter; returns the
    artifacts and the served outputs, each checked against QuantSim."""
    frozen, descriptors = cp.optimize_for_freeze(bundle, profile)
    model = cp.freeze(frozen, profile, descriptors, name="pin")
    packs = [cp.pack_lora(a, descriptors, profile) for a in adapters]
    session = rt.load_model(model)
    outputs = []
    for adapter, pack in zip(adapters, packs):
        rt.bind_lora(session, pack)
        out = rt.infer(session, x, cond, seed=seed)
        ref = qt.execute_quantsim(bundle, profile, adapter, x, cond, seed=seed)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes(), f"{adapter.adapter_id}: infer differs from QuantSim"
        outputs.append(out)
    return model, packs, outputs


def check_pinned(pinned, model, packs, outputs):
    assert sha(model) == pinned["model"]
    assert [level_digest(p) for p in packs] == pinned["levels"]
    assert [sha(p) for p in packs] == pinned["packs"]
    assert [sha(o.tobytes()) for o in outputs] == pinned["outputs"]


def test_toy_bits_pinned(toy_bundle, toy_adapter, toy_samples, toy_profile):
    x, cond = toy_samples[0]
    model, packs, outputs = serve(toy_bundle, toy_profile, [toy_adapter], x, cond, seed=5)
    check_pinned(PINNED["toy"], model, packs, outputs)


def test_w64_bits_pinned(w64):
    bundle, adapters, samples, profile = w64
    x, cond = samples[1]
    model, packs, outputs = serve(bundle, profile, adapters, x, cond, seed=9)
    assert all(np.isfinite(o).all() for o in outputs)
    check_pinned(PINNED["w64"], model, packs, outputs)


def test_d48_bits_pinned(d48):
    bundle, adapters, samples, profile = d48
    x, cond = samples[1]
    model, packs, outputs = serve(bundle, profile, adapters, x, cond, seed=3)
    assert all(np.isfinite(o).all() for o in outputs)
    check_pinned(PINNED["d48"], model, packs, outputs)


def test_distilled_factors_pinned(w64):
    bundle, adapters, samples, profile = w64
    cfg = dst.DistillConfig(steps=2, learning_rate=1e-4, batch=2, seed=4)
    tuned, _ = dst.finetune_adapter(bundle, adapters[1], profile,
                                    [(x, c, None) for x, c in samples], cfg)
    h = hashlib.sha256()
    for nid in sorted(tuned.entries):
        e = tuned.entries[nid]
        h.update(e.A.tobytes() + e.B.tobytes())
    assert h.hexdigest() == PINNED["distill"]
