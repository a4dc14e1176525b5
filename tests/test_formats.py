"""Malformed artifacts raise FormatError and nothing else.

The fuzz changes one payload byte of the toy ``.quadm`` and ``.qlp``
and recomputes the checksum, so every mutant reaches the decoder.  A
mutant may still load (a changed weight value is a valid model); what
it may not do is escape as struct.error, KeyError, UnicodeDecodeError
or a RangeError from the quantization parameters.
"""

import random
import struct
import zlib

import pytest

from onegraph import compiler as cp
from onegraph.errors import FormatError

TRIALS = 200


def mutate(data: bytes, rng: random.Random) -> bytes:
    """Change one payload byte and rewrite the header's crc32."""
    head, payload = bytearray(data[:20]), bytearray(data[20:])
    i = rng.randrange(len(payload))
    payload[i] = (payload[i] + rng.randrange(1, 256)) % 256
    struct.pack_into("<I", head, 8, zlib.crc32(payload) & 0xFFFFFFFF)
    return bytes(head + payload)


@pytest.fixture(scope="module")
def toy_artifacts(toy_bundle, toy_adapter, toy_profile):
    frozen, descriptors = cp.optimize_for_freeze(toy_bundle, toy_profile)
    model = cp.freeze(frozen, toy_profile, descriptors, name="toy")
    return model, cp.pack_lora(toy_adapter, descriptors, toy_profile)


@pytest.mark.parametrize("kind", ("model", "pack"))
def test_one_byte_corruption_is_a_format_error(toy_artifacts, kind):
    data, loader = ((toy_artifacts[0], cp.load_compiled) if kind == "model"
                    else (toy_artifacts[1], cp.unpack_lora))
    loader(data)
    rng = random.Random(kind)
    rejected = 0
    for trial in range(TRIALS):
        try:
            loader(mutate(data, rng))
        except FormatError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - the test reports what escaped
            pytest.fail(f"trial {trial}: {type(exc).__name__}: {exc}")
    assert rejected > 0
