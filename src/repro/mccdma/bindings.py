"""Functional bindings: run real MC-CDMA data through the simulated system.

The executive interpreter can thread actual values through the macro-code
(the flow's dynamic verification).  These bindings implement every operation
kind of the case-study graph with the bit-exact DSP blocks of
:mod:`repro.mccdma`, so the samples leaving the simulated DAC can be checked
against the monolithic reference transmitter.

Per-iteration payload (single user): ``INFO_BITS`` information bits are
coded (rate 1/2 + tail), interleaved, modulated (QPSK takes the first 8
coded bits, QAM-16 the first 16 — 4 symbols either way), spread by a
16-chip Walsh code across the 64 subcarriers, IFFT'd and extended with the
cyclic prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.mccdma.bits import BitSource
from repro.mccdma.coding import ConvolutionalCoder
from repro.mccdma.interleaving import BlockInterleaver
from repro.mccdma.modulation import Modulation, modulator_for
from repro.mccdma.spreading import WalshSpreader

__all__ = ["CaseStudyBindings", "make_case_study_bindings", "reference_symbol"]

INFO_BITS = 16
CODED_BITS = 36  # 2*(16+2)
ILV_ROWS, ILV_COLS = 6, 6
SPREAD_LEN = 16
N_SUBCARRIERS = 64
CP_LEN = 16
SYMBOLS_PER_OFDM = N_SUBCARRIERS // SPREAD_LEN  # 4


def _bits_for(modulation: Modulation) -> int:
    return SYMBOLS_PER_OFDM * modulation.bits_per_symbol  # 8 or 16


@dataclass
class CaseStudyBindings:
    """State + binding table for one simulation run."""

    snr_trace: Sequence[float]
    seed: int = 0
    threshold_db: float = 14.0
    hysteresis_db: float = 1.0
    bindings: dict[str, Callable] = field(init=False)

    def __post_init__(self) -> None:
        if not len(self.snr_trace):
            raise ValueError("need at least one iteration: the SNR trace is empty")
        self._source = BitSource(self.seed)
        self._coder = ConvolutionalCoder()
        self._interleaver = BlockInterleaver(ILV_ROWS, ILV_COLS)
        self._spreader = WalshSpreader(SPREAD_LEN, [0])
        from repro.mccdma.adaptive import AdaptiveModulationController

        self._controller = AdaptiveModulationController(
            threshold_db=self.threshold_db, hysteresis_db=self.hysteresis_db
        )
        self.selected: list[Modulation] = []
        self.source_bits: list[np.ndarray] = []
        self.bindings = {
            "bit_source": self._bit_source,
            "select_source": self._select_source,
            "interface_in_out": self._interface,
            "channel_coder": self._coder_bind,
            "interleaver": self._interleave,
            "qpsk_mod": self._make_modulator(Modulation.QPSK),
            "qam16_mod": self._make_modulator(Modulation.QAM16),
            "cond_merge": self._merge,
            "spreader": self._spread,
            "chip_mapper": self._chip_map,
            "ifft64": self._ifft,
            "cyclic_prefix": self._cyclic_prefix,
            "framer": self._frame,
            "dac_sink": self._dac,
        }

    # -- individual blocks -------------------------------------------------------

    def _bit_source(self, inputs: dict, params: dict) -> dict:
        bits = self._source.take(INFO_BITS)
        self.source_bits.append(bits)
        return {"bits": bits}

    def _select_source(self, inputs: dict, params: dict) -> dict:
        iteration = params["iteration"]
        snr = float(self.snr_trace[iteration % len(self.snr_trace)])
        choice = self._controller.select(snr)
        self.selected.append(choice)
        return {"value": choice}

    @staticmethod
    def _interface(inputs: dict, params: dict) -> dict:
        return {"dout": inputs["din"]}

    def _coder_bind(self, inputs: dict, params: dict) -> dict:
        return {"coded": self._coder.encode(inputs["bits"])}

    def _interleave(self, inputs: dict, params: dict) -> dict:
        coded = np.asarray(inputs["coded"])
        out = self._interleaver.interleave(coded)
        return {"out_qpsk": out, "out_qam16": out}

    def _make_modulator(self, modulation: Modulation):
        mod = modulator_for(modulation)
        take = _bits_for(modulation)

        def bind(inputs: dict, params: dict) -> dict:
            bits = np.asarray(inputs["bits"])[:take]
            return {"symbols": mod.modulate(bits)}

        return bind

    @staticmethod
    def _merge(inputs: dict, params: dict) -> dict:
        for key in ("from_qpsk", "from_qam16"):
            value = inputs.get(key)
            if value is not None:
                return {"symbols": value}
        return {"symbols": None}

    def _spread(self, inputs: dict, params: dict) -> dict:
        symbols = np.asarray(inputs["symbols"]).reshape(1, -1)
        return {"chips": self._spreader.spread(symbols)}

    @staticmethod
    def _chip_map(inputs: dict, params: dict) -> dict:
        return {"mapped": inputs["chips"]}

    @staticmethod
    def _ifft(inputs: dict, params: dict) -> dict:
        return {"time": np.fft.ifft(np.asarray(inputs["freq"]), norm="ortho")}

    @staticmethod
    def _cyclic_prefix(inputs: dict, params: dict) -> dict:
        time = np.asarray(inputs["time"])
        return {"extended": np.concatenate([time[-CP_LEN:], time])}

    @staticmethod
    def _frame(inputs: dict, params: dict) -> dict:
        return {"frame": inputs["symbol"]}

    @staticmethod
    def _dac(inputs: dict, params: dict) -> dict:
        return {"samples": inputs["samples"]}


def make_case_study_bindings(
    snr_trace: Sequence[float], seed: int = 0, **kwargs
) -> CaseStudyBindings:
    """Bindings for :func:`repro.mccdma.casestudy.build_mccdma_graph`."""
    return CaseStudyBindings(snr_trace=list(snr_trace), seed=seed, **kwargs)


def reference_symbol(bits: np.ndarray, modulation: Modulation) -> np.ndarray:
    """The monolithic reference computation of one OFDM symbol.

    Applies exactly the same chain as the bindings (coder → interleaver →
    modulation → spreading → IFFT → CP) in plain numpy, for verifying the
    distributed simulation sample by sample.
    """
    coder = ConvolutionalCoder()
    interleaver = BlockInterleaver(ILV_ROWS, ILV_COLS)
    spreader = WalshSpreader(SPREAD_LEN, [0])
    coded = interleaver.interleave(coder.encode(np.asarray(bits, dtype=np.uint8)))
    mod = modulator_for(modulation)
    symbols = mod.modulate(coded[: _bits_for(modulation)])
    chips = spreader.spread(symbols.reshape(1, -1))
    time = np.fft.ifft(chips, norm="ortho")
    return np.concatenate([time[-CP_LEN:], time])
