"""The synthetic bitstream bytes, pinned against a reference and by digest.

Frame payloads feed the partial-bitstream CRCs, the exported ``.bit`` files
and the sweep artefacts' sha256, so a change to how they are derived must
show here even when it stays deterministic.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import XC2V2000, generate_full_bitstream
from repro.fabric.bitstream import _frame_payload

#: sha256 of the full XC2V2000 bitstream's frames (address word + payload,
#: in stream order) and its CRC, for design "mccdma_tx".
FULL_FRAMES_SHA256 = "0d49efff5b9c5df8b938cc85234312f026aeb64b877427e309ea283d9045adf2"
FULL_CRC = 0x9BF12BBC


def reference_payload(module_name: str, block: int, major: int, minor: int, nbytes: int) -> bytes:
    """The format as stated: one fresh SHA-256 of ``seed + counter`` per block."""
    seed = f"{module_name}:{block}:{major}:{minor}".encode()
    out = b""
    counter = 0
    while len(out) < nbytes:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:nbytes]


@settings(max_examples=200, deadline=None)
@given(
    module_name=st.text(max_size=24),
    block=st.integers(0, 2),
    major=st.integers(0, 255),
    minor=st.integers(0, 31),
    nbytes=st.one_of(st.sampled_from([0, 1, 31, 32, 33, 924, 5000]), st.integers(0, 6000)),
)
def test_frame_payload_matches_the_per_block_formula(module_name, block, major, minor, nbytes):
    payload = _frame_payload(module_name, block, major, minor, nbytes)
    assert len(payload) == nbytes
    assert payload == reference_payload(module_name, block, major, minor, nbytes)


def test_full_bitstream_bytes_are_pinned():
    bitstream = generate_full_bitstream(XC2V2000, "mccdma_tx")
    frames = b"".join(f.address().to_bytes(4, "big") + f.payload for f in bitstream.frames)
    assert len(bitstream.frames) == 1072
    assert hashlib.sha256(frames).hexdigest() == FULL_FRAMES_SHA256
    assert bitstream.crc == FULL_CRC
