"""Link-level evaluation of adaptive modulation.

The paper's introduction motivates runtime reconfiguration with Software
Defined Radio: the transmitter must "seamlessly switch" its physical layer
to the channel.  This module quantifies that motivation on the MC-CDMA
link: bit-error rate and spectral efficiency of fixed-QPSK, fixed-QAM-16
and SNR-adaptive transmission over a noisy channel, plus the net goodput
once the ≈4 ms reconfiguration cost of switching is charged.

The Monte-Carlo loop itself lives in :mod:`repro.mccdma.engine`; the
functions here are thin wrappers kept for API stability.  ``batched=False``
selects the retained per-frame reference path, which the batched default
reproduces field-for-field.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.mccdma.engine import LinkEngineConfig, LinkResult, LinkSimulationEngine
from repro.mccdma.transmitter import MCCDMAConfig

__all__ = ["LinkResult", "simulate_link", "adaptive_vs_fixed"]


def simulate_link(
    strategy: str,
    snr_trace_db: Sequence[float],
    config: Optional[MCCDMAConfig] = None,
    seed: int = 0,
    threshold_db: float = 2.0,
    hysteresis_db: float = 1.0,
    batched: bool = True,
    batch_frames: int = 64,
) -> LinkResult:
    """Transmit one frame per SNR-trace entry; returns aggregate stats.

    ``threshold_db`` is in *channel* SNR terms (the single-user despreading
    gain of 10·log10(L) dB means QAM-16 is viable well below its textbook
    Es/N0 threshold).

    .. note:: **Seeding compatibility.**  Every frame now derives its data
       and noise streams from per-frame children of one
       ``np.random.SeedSequence(seed)`` (see
       :func:`repro.mccdma.engine.frame_seed_sequences`).  Earlier revisions
       drew data bits from a single shared generator and seeded the AWGN
       channel with ``seed * 10_000 + frame_idx``, which collides across
       seeds once a trace reaches 10 000 frames (seed 0's frame 10 000
       reused seed 1's frame-0 noise).  Results are therefore numerically
       different from those revisions, but remain deterministic per seed and
       identical between the ``batched`` and reference paths.
    """
    engine = LinkSimulationEngine(
        config=config,
        engine=LinkEngineConfig(batch_frames=batch_frames, batched=batched),
        threshold_db=threshold_db,
        hysteresis_db=hysteresis_db,
    )
    return engine.simulate(strategy, snr_trace_db, seed=seed)


def adaptive_vs_fixed(
    snr_trace_db: Sequence[float],
    seed: int = 0,
    threshold_db: float = 2.0,
    hysteresis_db: float = 1.0,
    batched: bool = True,
) -> dict[str, LinkResult]:
    """All three strategies over the same channel realization."""
    return {
        strategy: simulate_link(
            strategy, snr_trace_db, seed=seed,
            threshold_db=threshold_db, hysteresis_db=hysteresis_db,
            batched=batched,
        )
        for strategy in ("qpsk", "qam16", "adaptive")
    }
