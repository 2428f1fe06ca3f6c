"""Batched Monte-Carlo link-simulation engine.

The link-level results of the paper's MC-CDMA case study (BER curves,
adaptive-modulation goodput, reconfiguration-cost crossovers) all come from
frame-by-frame Monte-Carlo simulation.  :class:`LinkSimulationEngine` makes
that loop fast without changing a single output bit:

- **Batching** — frames are simulated ``batch_frames`` at a time through the
  vectorized transmitter/receiver kernels
  (:meth:`~repro.mccdma.transmitter.MCCDMATransmitter.transmit_frames` /
  :meth:`~repro.mccdma.receiver.MCCDMAReceiver.receive_frames`), grouped by
  identical modulation plans; ``batched=False`` retains the seed-path
  per-frame loop, and both paths are field-identical on every
  :class:`LinkResult`.
- **Collision-free seeding** — every frame derives a data stream and a noise
  stream from per-frame children of one :class:`numpy.random.SeedSequence`
  (:func:`frame_seed_sequences`), so distinct seeds can never share streams
  (the legacy ``seed * 10_000 + frame_idx`` scheme collided from 10k frames).
- **Early stopping** — a constant-SNR point
  (:meth:`LinkSimulationEngine.simulate_point`) can stop once the Wilson
  confidence-interval half-width on its BER estimate
  (:func:`wilson_halfwidth`) falls below a target.
- **Sharding** — :meth:`LinkSimulationEngine.sweep_points` fans SNR points
  out over the :class:`~repro.exec.engine.ParallelSweepEngine` worker pool
  (:class:`LinkPointJob` plugs into the generic job protocol of
  :func:`repro.exec.worker.run_job`), inheriting its per-job timeout, retry
  with backoff and crash isolation.
- **Observability** — under a recording tracer every batch and every
  completed point or run is a row span (``link:batch``, ``link:point``,
  ``link:run``; see :mod:`repro.flows.observe`), so ``--profile`` and
  ``--log-json`` cover link runs exactly as they cover design-flow runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.flows.observe import row_attributes
from repro.obs import get_telemetry, get_tracer
from repro.mccdma.adaptive import AdaptiveModulationController
from repro.mccdma.channel import AWGNChannel
from repro.mccdma.modulation import Modulation
from repro.mccdma.receiver import MCCDMAReceiver
from repro.mccdma.transmitter import MCCDMAConfig, MCCDMATransmitter

__all__ = [
    "LinkResult",
    "LinkEngineConfig",
    "LinkSimulationEngine",
    "LinkPointJob",
    "frame_seed_sequences",
    "wilson_halfwidth",
]


@dataclass
class LinkResult:
    """Aggregate link statistics for one strategy."""

    strategy: str
    total_bits: int
    error_bits: int
    switches: int
    n_frames: int
    #: bits of frames received without any bit error (ARQ model: an errored
    #: frame is discarded and retransmitted, delivering nothing).
    delivered_bits: int = 0
    frames_ok: int = 0

    @property
    def ber(self) -> float:
        return self.error_bits / self.total_bits if self.total_bits else 0.0

    @property
    def frame_success_rate(self) -> float:
        return self.frames_ok / self.n_frames if self.n_frames else 0.0

    def bits_per_frame(self) -> float:
        return self.total_bits / self.n_frames if self.n_frames else 0.0

    def goodput_bits_per_frame(self, frame_error_weight: float = 1.0) -> float:
        """Delivered error-free bits per frame under the ARQ model.

        ``frame_error_weight`` is kept for API compatibility; the ARQ model
        already zeroes errored frames, so the weight is ignored.
        """
        return self.delivered_bits / self.n_frames if self.n_frames else 0.0

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "total_bits": self.total_bits,
            "error_bits": self.error_bits,
            "switches": self.switches,
            "n_frames": self.n_frames,
            "delivered_bits": self.delivered_bits,
            "frames_ok": self.frames_ok,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LinkResult":
        return cls(**payload)


def frame_seed_sequences(
    seed: "int | np.random.SeedSequence", n_frames: int
) -> list[tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """Per-frame ``(data, noise)`` seed-sequence pairs from one root.

    Every frame spawns its own child of the root sequence and splits it into
    a data-bit stream and a noise stream, so streams are collision-free
    across frames *and* across seeds, and any frame can be simulated
    independently of the others (the property batching relies on).
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [tuple(child.spawn(2)) for child in root.spawn(n_frames)]


def wilson_halfwidth(errors: int, n: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for ``errors``/``n``.

    The Wilson interval stays honest at the extreme rates Monte-Carlo BER
    estimation lives at (p̂ near 0), unlike the normal approximation.
    """
    if n <= 0:
        return float("inf")
    p = errors / n
    zz = z * z
    return (z * math.sqrt(p * (1.0 - p) / n + zz / (4.0 * n * n))) / (1.0 + zz / n)


@dataclass(frozen=True)
class LinkEngineConfig:
    """Tuning knobs of the link-simulation engine."""

    #: Frames simulated per batch (and per early-stopping check).
    batch_frames: int = 64
    #: ``False`` selects the retained per-frame seed-reference path.
    batched: bool = True
    #: Early-stop a constant-SNR point once the Wilson half-width on its BER
    #: falls below this value (``None`` disables early stopping).
    ci_halfwidth: Optional[float] = None
    #: z-score of the confidence interval (1.96 ≈ 95%).
    ci_z: float = 1.96
    #: Frames that must be simulated before early stopping may trigger.
    min_frames: int = 32

    def __post_init__(self) -> None:
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        if self.ci_halfwidth is not None and self.ci_halfwidth <= 0:
            raise ValueError("ci_halfwidth must be positive (or None)")
        if self.ci_z <= 0:
            raise ValueError("ci_z must be positive")
        if self.min_frames < 1:
            raise ValueError("min_frames must be >= 1")


def _plan_for(
    strategy: str,
    snr_db: float,
    n_data_symbols: int,
    controller: Optional[AdaptiveModulationController],
) -> list[Modulation]:
    if strategy == "qpsk":
        return [Modulation.QPSK] * n_data_symbols
    if strategy == "qam16":
        return [Modulation.QAM16] * n_data_symbols
    if strategy == "adaptive":
        assert controller is not None
        return [controller.select(snr_db) for _ in range(n_data_symbols)]
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class _Accumulator:
    """Running totals over simulated frames."""

    total_bits: int = 0
    error_bits: int = 0
    delivered_bits: int = 0
    frames_ok: int = 0
    n_frames: int = 0

    def add_frame(self, n_bits: int, n_errors: int) -> None:
        self.total_bits += n_bits
        self.error_bits += n_errors
        self.n_frames += 1
        if n_errors == 0:
            self.delivered_bits += n_bits
            self.frames_ok += 1


class LinkSimulationEngine:
    """Batched Monte-Carlo simulation of the MC-CDMA link; see module docs."""

    def __init__(
        self,
        config: Optional[MCCDMAConfig] = None,
        engine: Optional[LinkEngineConfig] = None,
        threshold_db: float = 2.0,
        hysteresis_db: float = 1.0,
    ):
        self.config = config or MCCDMAConfig()
        self.engine = engine or LinkEngineConfig()
        self.threshold_db = threshold_db
        self.hysteresis_db = hysteresis_db
        self.tx = MCCDMATransmitter(self.config)
        self.rx = MCCDMAReceiver(self.config)

    # -- plans ------------------------------------------------------------------

    def _plans(
        self, strategy: str, trace: Sequence[float]
    ) -> tuple[list[tuple[Modulation, ...]], list[int]]:
        """Per-frame modulation plans plus the cumulative switch count.

        ``switches_after[i]`` counts modulation switches over frames
        ``0..i`` — early stopping reports the count for exactly the frames
        it simulated.
        """
        controller = AdaptiveModulationController(
            threshold_db=self.threshold_db, hysteresis_db=self.hysteresis_db
        )
        n_data = self.config.frame.n_data_symbols
        plans: list[tuple[Modulation, ...]] = []
        switches_after: list[int] = []
        switches = 0
        previous: Optional[Modulation] = None
        for snr_db in trace:
            plan = _plan_for(strategy, float(snr_db), n_data, controller)
            for modulation in plan:
                if previous is not None and modulation is not previous:
                    switches += 1
                previous = modulation
            plans.append(tuple(plan))
            switches_after.append(switches)
        return plans, switches_after

    # -- frame batches ----------------------------------------------------------

    def _run_batch_reference(self, indices, trace, plans, streams, acc) -> None:
        """The retained seed path: one frame at a time through the scalar
        kernels.  This is the bit-exactness reference for the batched path."""
        n_users = self.config.n_users
        for i in indices:
            plan = list(plans[i])
            data_ss, noise_ss = streams[i]
            nbits = self.tx.frame_bits(plan)
            bits = np.random.default_rng(data_ss).integers(
                0, 2, size=(n_users, nbits)
            ).astype(np.uint8)
            frame = self.tx.transmit_frame(bits, plan)
            channel = AWGNChannel(float(trace[i]), seed=noise_ss)
            received = self.rx.receive_frame(frame, samples=channel.transmit(frame.samples))
            acc.add_frame(bits.size, int(np.sum(received != bits)))

    def _run_batch_vectorized(self, indices, trace, plans, streams, acc) -> None:
        """Simulate a batch of frames through the vectorized kernels.

        Frames are grouped by identical modulation plan (fixed strategies
        have one group; adaptive plans collapse to a handful).  Data bits
        and AWGN keep their per-frame streams, so results are frame-order
        independent and bit-identical to the reference path.
        """
        n_users = self.config.n_users
        groups: dict[tuple[Modulation, ...], list[int]] = {}
        for i in indices:
            groups.setdefault(plans[i], []).append(i)
        frame_stats: dict[int, tuple[int, int]] = {}
        for plan, members in groups.items():
            nbits = self.tx.frame_bits(plan)
            bits = np.empty((len(members), n_users, nbits), dtype=np.uint8)
            for j, i in enumerate(members):
                bits[j] = np.random.default_rng(streams[i][0]).integers(
                    0, 2, size=(n_users, nbits)
                ).astype(np.uint8)
            clean = self.tx.transmit_frames(bits, plan)
            noisy = np.empty_like(clean)
            for j, i in enumerate(members):
                channel = AWGNChannel(float(trace[i]), seed=streams[i][1])
                noisy[j] = channel.transmit(clean[j])
            recovered = self.rx.receive_frames(plan, noisy)
            errors = (recovered != bits).reshape(len(members), -1).sum(axis=1)
            for j, i in enumerate(members):
                frame_stats[i] = (bits[j].size, int(errors[j]))
        # Accumulate in frame order so totals match the reference exactly.
        for i in indices:
            n_bits, n_errors = frame_stats[i]
            acc.add_frame(n_bits, n_errors)

    # -- public API -------------------------------------------------------------

    def simulate(
        self,
        strategy: str,
        snr_trace_db: Sequence[float],
        seed: "int | np.random.SeedSequence" = 0,
    ) -> LinkResult:
        """Transmit one frame per SNR-trace entry; returns aggregate stats."""
        return self._run(strategy, [float(s) for s in snr_trace_db], seed,
                         early_stop=False, run_stage="link:run")

    def simulate_point(
        self,
        strategy: str,
        snr_db: float,
        n_frames: int,
        seed: "int | np.random.SeedSequence" = 0,
    ) -> LinkResult:
        """One constant-SNR Monte-Carlo point, with optional early stopping.

        With ``ci_halfwidth`` configured, simulation stops at the first
        batch boundary (after ``min_frames``) where the Wilson-interval
        half-width on the BER estimate drops below the target; the returned
        ``n_frames`` is the number of frames actually simulated.  Early
        stopping applies identically to the batched and reference paths, so
        they remain field-identical.
        """
        if n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        return self._run(strategy, [float(snr_db)] * n_frames, seed,
                         early_stop=True, run_stage="link:point")

    def _run(self, strategy, trace, seed, *, early_stop, run_stage) -> LinkResult:
        cfg = self.engine
        tracer = get_tracer()
        run_span = tracer.span(run_stage).start()
        plans, switches_after = self._plans(strategy, trace)
        streams = frame_seed_sequences(seed, len(trace))
        acc = _Accumulator()
        flow = f"link:{strategy}"
        run_batch = (
            self._run_batch_vectorized if cfg.batched else self._run_batch_reference
        )
        stopped_early = False
        for start in range(0, len(trace), cfg.batch_frames):
            indices = list(range(start, min(start + cfg.batch_frames, len(trace))))
            batch_span = tracer.span("link:batch").start() if tracer.enabled else None
            run_batch(indices, trace, plans, streams, acc)
            halfwidth = wilson_halfwidth(acc.error_bits, acc.total_bits, cfg.ci_z)
            if batch_span is not None:
                batch_span.attributes.update(
                    row_attributes(
                        flow,
                        {
                            "frames": len(indices),
                            "frames_done": acc.n_frames,
                            "error_bits": acc.error_bits,
                            "ber": acc.error_bits / acc.total_bits if acc.total_bits else 0.0,
                            "ci_halfwidth": halfwidth,
                            "batched": cfg.batched,
                        },
                    )
                )
                batch_span.end()
            if (
                early_stop
                and cfg.ci_halfwidth is not None
                and acc.n_frames >= cfg.min_frames
                and halfwidth <= cfg.ci_halfwidth
            ):
                stopped_early = True
                break
        result = LinkResult(
            strategy=strategy,
            total_bits=acc.total_bits,
            error_bits=acc.error_bits,
            switches=switches_after[acc.n_frames - 1] if acc.n_frames else 0,
            n_frames=acc.n_frames,
            delivered_bits=acc.delivered_bits,
            frames_ok=acc.frames_ok,
        )
        if tracer.enabled:
            run_span.attributes.update(
                row_attributes(
                    flow,
                    {
                        "frames": result.n_frames,
                        "frames_requested": len(trace),
                        "ber": result.ber,
                        "switches": result.switches,
                        "early_stopped": stopped_early,
                        "batched": cfg.batched,
                    },
                )
            )
        hub = get_telemetry()
        if hub is not None:
            totals = hub.store("run")
            totals.counter_add("link.frames_total", 0, result.n_frames)
            totals.counter_add("link.error_bits_total", 0, result.error_bits)
        run_span.end()
        return result

    # -- multi-process SNR sweeps ------------------------------------------------

    def sweep_points(
        self,
        strategy: str,
        snr_points_db: Sequence[float],
        n_frames: int,
        seed: int = 0,
        jobs: int = 0,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_s: float = 0.05,
        pool=None,
    ) -> list[LinkResult]:
        """Simulate one constant-SNR point per entry, pulled by workers.

        ``jobs=0`` runs serially in-process through the very same
        :class:`LinkPointJob` code path the workers execute, so serial and
        parallel sweeps are field-identical; ``jobs>=1`` reuses the
        :class:`~repro.exec.engine.ParallelSweepEngine` scheduler (per-job
        timeout, bounded retry with exponential backoff, crash isolation).
        Pass ``pool=`` (a warm :class:`~repro.exec.pool.WorkerPool`) to
        amortize worker spawn + import across many sweeps — the CLI shares
        one pool across all ``--strategy`` curves this way.  Point ``i``
        derives its frame streams from ``SeedSequence(seed, spawn_key=(i,))``
        regardless of sharding.
        """
        from repro.exec.engine import ParallelSweepEngine

        point_jobs = [
            LinkPointJob(
                job_id=f"p{i:03d}@snr{float(snr_db):+.2f}",
                strategy=strategy,
                snr_db=float(snr_db),
                n_frames=n_frames,
                seed_entropy=seed,
                point_index=i,
                config=self.config,
                engine=self.engine,
                threshold_db=self.threshold_db,
                hysteresis_db=self.hysteresis_db,
            )
            for i, snr_db in enumerate(snr_points_db)
        ]
        sweep = ParallelSweepEngine(
            jobs=jobs,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            sweep_name=f"linklevel:{strategy}",
            pool=pool,
        )
        try:
            report = sweep.run(point_jobs)
        finally:
            if pool is None:
                sweep.close()
        if report.failed:
            detail = "; ".join(f"{r.job_id}: {r.error}" for r in report.failed)
            raise RuntimeError(f"link sweep failed for {len(report.failed)} point(s): {detail}")
        return [LinkResult.from_dict(r.payload["result"]) for r in report.results]


@dataclass(frozen=True)
class LinkPointJob:
    """One picklable constant-SNR link-simulation point.

    Plugs into the generic job protocol of :func:`repro.exec.worker.run_job`
    (anything with a ``job_id`` and an ``execute`` method), so the link
    engine inherits the sweep engine's scheduling, retry and observability
    for free.
    """

    job_id: str
    strategy: str
    snr_db: float
    n_frames: int
    seed_entropy: int
    point_index: int
    config: MCCDMAConfig
    engine: LinkEngineConfig
    threshold_db: float = 2.0
    hysteresis_db: float = 1.0
    #: Fault-injection hook honoured by :func:`repro.exec.worker.run_job`.
    fault: Optional[str] = None

    def execute(self, attempt: int = 1, cache: Any = None) -> dict[str, Any]:
        engine = LinkSimulationEngine(
            config=self.config,
            engine=self.engine,
            threshold_db=self.threshold_db,
            hysteresis_db=self.hysteresis_db,
        )
        seed = np.random.SeedSequence(self.seed_entropy, spawn_key=(self.point_index,))
        result = engine.simulate_point(self.strategy, self.snr_db, self.n_frames, seed=seed)
        return {
            "job_id": self.job_id,
            "strategy": self.strategy,
            "snr_db": self.snr_db,
            "n_frames_requested": self.n_frames,
            "early_stopped": result.n_frames < self.n_frames,
            "result": result.to_dict(),
        }
