"""Frame-addressed configuration bitstreams.

Models the artefact the Modular Design back-end produces per module: a
(partial) bitstream made of configuration frames plus a command header.  The
content is synthetic but structurally faithful: frames carry a frame address
(block type / major / minor), a fixed-size payload derived deterministically
from the module identity, and the stream ends with a CRC word — enough to
exercise the protocol configuration builder, the ICAP/SelectMAP port models
and CRC-failure injection.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.fabric.device import FRAMES_PER_CLB_COLUMN, PARTIAL_HEADER_BITS, VirtexIIDevice
from repro.fabric.floorplan import ModulePlacement

__all__ = ["BitstreamError", "Frame", "Bitstream", "generate_partial_bitstream", "generate_full_bitstream"]

#: Virtex-II block types (UG002 frame address register).
BLOCK_CLB = 0
BLOCK_BRAM = 1
BLOCK_BRAM_INT = 2

#: Synchronization word opening every configuration stream.
SYNC_WORD = 0xAA995566


class BitstreamError(ValueError):
    """Malformed or corrupted bitstream."""


@dataclass(frozen=True, slots=True)
class Frame:
    """One configuration frame."""

    block: int
    major: int  # column address
    minor: int  # frame within the column
    payload: bytes

    def address(self) -> int:
        """Packed frame address (block|major|minor), UG002-style."""
        return (self.block << 25) | (self.major << 17) | (self.minor << 9)


@dataclass
class Bitstream:
    """A full or partial configuration bitstream."""

    device_name: str
    module_name: str
    frames: list[Frame]
    header_bits: int
    crc: int = 0
    partial: bool = True
    #: The column span this stream reconfigures (None for full streams).
    placement: Optional[ModulePlacement] = None

    def __post_init__(self) -> None:
        if not self.frames:
            raise BitstreamError(f"bitstream {self.module_name!r} has no frames")
        if self.crc == 0:
            self.crc = self.compute_crc()

    def compute_crc(self) -> int:
        crc = 0
        for frame in self.frames:
            crc = zlib.crc32(frame.payload, crc)
            crc = zlib.crc32(frame.address().to_bytes(4, "big"), crc)
        return crc or 1  # never 0, so "unset" is distinguishable

    def verify_crc(self) -> bool:
        return self.crc == self.compute_crc()

    @property
    def size_bits(self) -> int:
        return self.header_bits + sum(len(f.payload) * 8 for f in self.frames)

    @property
    def size_bytes(self) -> int:
        return -(-self.size_bits // 8)

    def corrupted(self, frame_index: int = 0, seed: int = 0) -> "Bitstream":
        """A copy with one frame's payload flipped — CRC check must fail."""
        if not 0 <= frame_index < len(self.frames):
            raise IndexError(f"frame index {frame_index} out of range")
        frames = list(self.frames)
        victim = frames[frame_index]
        flipped = bytes(b ^ 0xFF for b in victim.payload[:1]) + victim.payload[1:]
        frames[frame_index] = Frame(victim.block, victim.major, victim.minor, flipped)
        return Bitstream(
            device_name=self.device_name,
            module_name=self.module_name,
            frames=frames,
            header_bits=self.header_bits,
            crc=self.crc,  # keep the original CRC -> mismatch
            partial=self.partial,
            placement=self.placement,
        )

    def words(self) -> Iterable[int]:
        """The stream as 32-bit configuration words (header + frames + CRC)."""
        yield SYNC_WORD
        header_words = self.header_bits // 32 - 2  # sync + crc accounted for
        for i in range(max(0, header_words)):
            yield 0x3000_0000 | i  # modelled command words
        for frame in self.frames:
            yield frame.address()
            payload = frame.payload
            for off in range(0, len(payload), 4):
                yield int.from_bytes(payload[off : off + 4].ljust(4, b"\0"), "big")
        yield self.crc & 0xFFFFFFFF


def parse_word_stream(words: list[int], frame_payload_words: int) -> dict:
    """Parse a configuration word stream back into its structure.

    The inverse of :meth:`Bitstream.words`: checks the sync word opens the
    stream, extracts the frame addresses (each followed by exactly
    ``frame_payload_words`` payload words), and returns the trailing CRC.
    Raises :class:`BitstreamError` on any structural violation — this is
    what the real device's configuration logic enforces before committing
    frames.
    """
    if not words:
        raise BitstreamError("empty configuration stream")
    if words[0] != SYNC_WORD:
        raise BitstreamError(f"stream does not open with the sync word (got {words[0]:#010x})")
    addresses: list[int] = []
    i = 1
    # Skip modelled command words (0x3xxxxxxx) up to the first frame address.
    while i < len(words) - 1 and (words[i] >> 28) == 0x3:
        i += 1
    header_words = i - 1
    while i < len(words) - 1:
        address = words[i]
        if address & 0x1FF:
            raise BitstreamError(f"malformed frame address {address:#010x} at word {i}")
        addresses.append(address)
        i += 1 + frame_payload_words
        if i > len(words) - 1:
            raise BitstreamError("truncated frame payload at end of stream")
    crc = words[-1]
    return {"header_words": header_words, "addresses": addresses, "crc": crc}


def _frame_payload(module_name: str, block: int, major: int, minor: int, nbytes: int) -> bytes:
    """Deterministic synthetic frame content derived from module identity.

    The format, pinned by the tests: with ``seed`` the UTF-8 bytes of
    ``f"{module_name}:{block}:{major}:{minor}"``, block ``i`` (from 0) is
    ``sha256(seed + i.to_bytes(4, "big")).digest()``, and the payload is the
    blocks' concatenation cut to ``nbytes``.  SHA-256 streams, so the seed is
    hashed once and each block continues from a copy of that state.
    """
    seeded = hashlib.sha256(f"{module_name}:{block}:{major}:{minor}".encode())
    blocks = []
    for counter in range(-(-nbytes // seeded.digest_size)):
        block_hash = seeded.copy()
        block_hash.update(counter.to_bytes(4, "big"))
        blocks.append(block_hash.digest())
    return b"".join(blocks)[:nbytes]


def generate_partial_bitstream(
    device: VirtexIIDevice, placement: ModulePlacement, module_name: str
) -> Bitstream:
    """The partial bitstream reconfiguring ``placement`` with ``module_name``.

    Frame count and total size agree with
    :meth:`VirtexIIDevice.partial_bitstream_bits`, so latency results derived
    from either representation are consistent.
    """
    frame_bytes = -(-device.frame_bits // 8)
    frames: list[Frame] = []
    for col in range(placement.col0, placement.col_end):
        for minor in range(FRAMES_PER_CLB_COLUMN):
            frames.append(
                Frame(BLOCK_CLB, col, minor, _frame_payload(module_name, BLOCK_CLB, col, minor, frame_bytes))
            )
        for bram_col in device.bram_cols:
            if col < bram_col <= col + 1:
                for minor in range(4):
                    frames.append(
                        Frame(
                            BLOCK_BRAM,
                            bram_col,
                            minor,
                            _frame_payload(module_name, BLOCK_BRAM, bram_col, minor, frame_bytes),
                        )
                    )
    return Bitstream(
        device_name=device.name,
        module_name=module_name,
        frames=frames,
        header_bits=PARTIAL_HEADER_BITS,
        partial=True,
        placement=placement,
    )


def generate_full_bitstream(device: VirtexIIDevice, design_name: str) -> Bitstream:
    """The initial full-device bitstream (static part + default modules)."""
    frame_bytes = -(-device.frame_bits // 8)
    frames = []
    for col in range(device.clb_cols):
        for minor in range(FRAMES_PER_CLB_COLUMN):
            frames.append(
                Frame(BLOCK_CLB, col, minor, _frame_payload(design_name, BLOCK_CLB, col, minor, frame_bytes))
            )
    for bram_col in device.bram_cols:
        for minor in range(4):
            frames.append(
                Frame(BLOCK_BRAM, bram_col, minor, _frame_payload(design_name, BLOCK_BRAM, bram_col, minor, frame_bytes))
            )
    # Non-CLB overhead (IOB/clock columns) modelled as extra header bits.
    overhead_frames = device.total_frames - len(frames)
    header_bits = PARTIAL_HEADER_BITS + max(0, overhead_frames) * device.frame_bits
    return Bitstream(
        device_name=device.name,
        module_name=design_name,
        frames=frames,
        header_bits=header_bits,
        partial=False,
    )
