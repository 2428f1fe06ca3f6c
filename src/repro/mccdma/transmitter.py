"""The composed MC-CDMA transmitter (the paper's Fig. 4 datapath)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mccdma.framing import Frame, FrameBuilder, FrameConfig
from repro.mccdma.modulation import Modulation, modulation_runs, modulator_for
from repro.mccdma.ofdm import OFDMModulator
from repro.mccdma.spreading import WalshSpreader

__all__ = ["MCCDMAConfig", "MCCDMATransmitter"]


@dataclass(frozen=True)
class MCCDMAConfig:
    """Numerology of the transmitter.

    Defaults follow the 4G MC-CDMA prototype the paper builds on: 64
    subcarriers, length-16 Walsh codes (so 4 spread symbols per user per
    OFDM symbol), 16-sample cyclic prefix.
    """

    n_subcarriers: int = 64
    spread_length: int = 16
    cp_len: int = 16
    user_codes: tuple[int, ...] = (0,)
    frame: FrameConfig = field(default_factory=FrameConfig)

    def __post_init__(self) -> None:
        if not self.user_codes:
            raise ValueError("user_codes must name at least one Walsh-code user")
        if self.n_subcarriers % self.spread_length:
            raise ValueError(
                f"{self.spread_length}-chip codes do not tile {self.n_subcarriers} subcarriers"
            )
        if self.frame.n_subcarriers != self.n_subcarriers:
            raise ValueError("frame config and transmitter disagree on subcarrier count")

    @property
    def n_users(self) -> int:
        return len(self.user_codes)

    @property
    def symbols_per_ofdm(self) -> int:
        """Spread (pre-spreading) symbols per user per OFDM symbol."""
        return self.n_subcarriers // self.spread_length

    def bits_per_ofdm_symbol(self, modulation: Modulation) -> int:
        """Data bits per user carried by one OFDM symbol."""
        return self.symbols_per_ofdm * modulation.bits_per_symbol


class MCCDMATransmitter:
    """Bit-exact model of the transmit datapath.

    One call to :meth:`transmit_frame` performs, per data OFDM symbol:
    modulation (QPSK or QAM-16 as selected), Walsh spreading across users,
    chip-to-subcarrier mapping, IFFT, cyclic prefix — then frames the result
    behind pilots.  This is the functional reference the generated VHDL
    implements; the simulator executes it block by block.
    """

    def __init__(self, config: MCCDMAConfig | None = None):
        self.config = config or MCCDMAConfig()
        self.spreader = WalshSpreader(self.config.spread_length, list(self.config.user_codes))
        self.ofdm = OFDMModulator(self.config.n_subcarriers, self.config.cp_len)
        self.framer = FrameBuilder(self.config.frame, self.ofdm.symbol_len)

    # -- sizing ------------------------------------------------------------------

    def frame_bits(self, modulations: Sequence[Modulation]) -> int:
        """Bits per user consumed by a frame with the given per-symbol plan."""
        if len(modulations) != self.config.frame.n_data_symbols:
            raise ValueError(
                f"plan must cover {self.config.frame.n_data_symbols} data symbols"
            )
        return sum(self.config.bits_per_ofdm_symbol(m) for m in modulations)

    # -- pipeline stages (exposed for the executive interpreter) -----------------------

    def modulate_symbol(self, bits: np.ndarray, modulation: Modulation) -> np.ndarray:
        """Bits of all users for one OFDM symbol → per-user symbol matrix."""
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        if bits.shape[0] != self.config.n_users:
            raise ValueError(f"expected {self.config.n_users} user rows, got {bits.shape[0]}")
        need = self.config.bits_per_ofdm_symbol(modulation)
        if bits.shape[1] != need:
            raise ValueError(f"expected {need} bits per user, got {bits.shape[1]}")
        mod = modulator_for(modulation)
        return np.vstack([mod.modulate(row) for row in bits])

    def spread_symbol(self, symbols: np.ndarray) -> np.ndarray:
        """Per-user symbols → superposed chips for one OFDM symbol."""
        chips = self.spreader.spread(symbols)
        if chips.size != self.config.n_subcarriers:
            raise AssertionError("chip count must equal subcarrier count")
        return chips

    def ofdm_symbol(self, chips: np.ndarray) -> np.ndarray:
        """Chips of one OFDM symbol → time-domain samples with CP."""
        return self.ofdm.modulate(chips)

    # -- whole frame --------------------------------------------------------------

    def transmit_frame(
        self, bits: np.ndarray, modulations: Sequence[Modulation]
    ) -> Frame:
        """Transmit one frame.

        ``bits`` has shape ``(n_users, frame_bits(modulations))``; the
        per-symbol modulation plan is what the ``Select`` input chose.
        """
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        total = self.frame_bits(modulations)
        if bits.shape != (self.config.n_users, total):
            raise ValueError(
                f"bits must have shape ({self.config.n_users}, {total}), got {bits.shape}"
            )
        blocks = []
        offset = 0
        for modulation in modulations:
            need = self.config.bits_per_ofdm_symbol(modulation)
            chunk = bits[:, offset : offset + need]
            offset += need
            symbols = self.modulate_symbol(chunk, modulation)
            chips = self.spread_symbol(symbols)
            blocks.append(self.ofdm_symbol(chips))
        return self.framer.build(blocks, list(modulations))

    def transmit_frames(
        self, bits: np.ndarray, modulations: Sequence[Modulation]
    ) -> np.ndarray:
        """Transmit a batch of frames sharing one modulation plan.

        ``bits`` has shape ``(n_frames, n_users, frame_bits(modulations))``;
        the result is the ``(n_frames, n_samples)`` matrix of frame samples
        (pilots included).  Row ``f`` is bit-identical to
        ``transmit_frame(bits[f], modulations).samples``: every kernel
        (modulation, spreading, IFFT, cyclic prefix) is applied to the whole
        batch at once, grouped over contiguous same-modulation symbol runs,
        but performs the same per-element arithmetic in the same order.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        modulations = list(modulations)
        total = self.frame_bits(modulations)
        n_users = self.config.n_users
        if bits.ndim != 3 or bits.shape[1:] != (n_users, total):
            raise ValueError(
                f"bits must have shape (n_frames, {n_users}, {total}), got {bits.shape}"
            )
        n_frames = bits.shape[0]
        sym_len = self.ofdm.symbol_len
        spm = self.config.symbols_per_ofdm
        data = np.empty((n_frames, len(modulations) * sym_len), dtype=np.complex128)
        bit_off = 0
        sym_off = 0
        for modulation, count in modulation_runs(modulations):
            need = self.config.bits_per_ofdm_symbol(modulation) * count
            chunk = bits[:, :, bit_off : bit_off + need]
            bit_off += need
            mod = modulator_for(modulation)
            # Per-user bit runs are contiguous, so one flat modulate call
            # covers every (frame, user, OFDM symbol) of the run.
            symbols = mod.modulate(np.ascontiguousarray(chunk).reshape(-1))
            symbols = symbols.reshape(n_frames, n_users, count * spm)
            chips = self.spreader.spread_batch(symbols)  # (frames, count*n_sub)
            blocks = self.ofdm.modulate(chips.reshape(-1)).reshape(n_frames, count * sym_len)
            data[:, sym_off * sym_len : (sym_off + count) * sym_len] = blocks
            sym_off += count
        pilots = self.framer.pilot_samples()
        samples = np.empty((n_frames, pilots.size + data.shape[1]), dtype=np.complex128)
        samples[:, : pilots.size] = pilots
        samples[:, pilots.size :] = data
        return samples
