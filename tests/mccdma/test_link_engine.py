"""Batched link-simulation engine vs the per-frame reference path."""

import numpy as np
import pytest

from repro.flows.observe import flow_rows
from repro.mccdma.engine import (
    LinkEngineConfig,
    LinkPointJob,
    LinkSimulationEngine,
    frame_seed_sequences,
    wilson_halfwidth,
)
from repro.mccdma.interleaving import BlockInterleaver
from repro.mccdma.linklevel import adaptive_vs_fixed, simulate_link
from repro.mccdma.spreading import walsh_matrix
from repro.mccdma.transmitter import MCCDMAConfig
from repro.obs import Tracer, use_tracer


def _pair(config, batch_frames=4, **kwargs):
    ref = LinkSimulationEngine(
        config, LinkEngineConfig(batched=False, batch_frames=batch_frames, **kwargs)
    )
    bat = LinkSimulationEngine(
        config, LinkEngineConfig(batched=True, batch_frames=batch_frames, **kwargs)
    )
    return ref, bat


# -- property grid: batched reproduces the reference exactly --------------------

TRACE = [-1.0, 2.5, 4.0, 7.5]  # crosses the adaptive threshold both ways


@pytest.mark.parametrize("strategy", ["qpsk", "qam16", "adaptive"])
@pytest.mark.parametrize("user_codes", [(0,), (0, 3, 5)])
def test_batched_equals_reference_across_seeds(strategy, user_codes):
    config = MCCDMAConfig(user_codes=user_codes)
    ref, bat = _pair(config, batch_frames=3)  # uneven final batch on purpose
    for seed in range(20):
        expected = ref.simulate(strategy, TRACE, seed=seed)
        actual = bat.simulate(strategy, TRACE, seed=seed)
        assert actual == expected, (strategy, user_codes, seed)


def test_simulate_link_wrapper_paths_agree():
    result = simulate_link("adaptive", TRACE, seed=5, batched=True)
    reference = simulate_link("adaptive", TRACE, seed=5, batched=False)
    assert result == reference
    assert result.n_frames == len(TRACE)


def test_adaptive_vs_fixed_covers_all_strategies():
    report = adaptive_vs_fixed(TRACE, seed=2)
    assert set(report) == {"qpsk", "qam16", "adaptive"}
    assert report["qam16"].total_bits == 2 * report["qpsk"].total_bits


# -- seeding: collision-free streams across frames and seeds --------------------

def test_distinct_seeds_yield_disjoint_streams():
    """Regression: the legacy ``seed * 10_000 + frame_idx`` channel seeding
    made seed 0 / frame 10_000 reuse seed 1 / frame 0's noise stream.  The
    spawned SeedSequence scheme keeps every (seed, frame) stream distinct —
    including exactly that colliding pair."""
    far = frame_seed_sequences(0, 10_001)[10_000]
    near = frame_seed_sequences(1, 1)[0]
    draw = lambda ss: tuple(np.random.default_rng(ss).integers(0, 2**63, 4))
    assert draw(far[1]) != draw(near[1])

    seen = set()
    for seed in range(3):
        for data_ss, noise_ss in frame_seed_sequences(seed, 50):
            seen.add(draw(data_ss))
            seen.add(draw(noise_ss))
    assert len(seen) == 3 * 50 * 2  # no stream collided


def test_frame_seed_sequences_accepts_seedsequence_root():
    root = np.random.SeedSequence(9, spawn_key=(4,))
    a = frame_seed_sequences(root, 3)
    b = frame_seed_sequences(np.random.SeedSequence(9, spawn_key=(4,)), 3)
    first = np.random.default_rng(a[0][0]).integers(0, 2**63, 2)
    assert np.array_equal(first, np.random.default_rng(b[0][0]).integers(0, 2**63, 2))


# -- cached kernels stay equal to fresh computation -----------------------------

def test_walsh_matrix_cached_equals_fresh():
    cached = walsh_matrix(16)
    assert walsh_matrix(16) is cached  # shared read-only instance
    fresh = np.ones((1, 1))
    for _ in range(4):  # Sylvester construction from scratch
        fresh = np.block([[fresh, fresh], [fresh, -fresh]])
    assert np.array_equal(cached, fresh)
    with pytest.raises(ValueError):
        cached[0, 0] = 2.0  # the shared instance must be immutable


def test_interleaver_permutations_cached_and_correct():
    a = BlockInterleaver(rows=4, cols=8)
    b = BlockInterleaver(rows=4, cols=8)
    assert a._fwd is b._fwd  # one cached permutation per geometry
    data = np.arange(64, dtype=np.uint8) % 2
    fresh = np.concatenate(
        [chunk.reshape(4, 8).T.ravel() for chunk in data.reshape(-1, 32)]
    )
    assert np.array_equal(a.interleave(data), fresh)
    assert np.array_equal(a.deinterleave(a.interleave(data)), data)


# -- early stopping -------------------------------------------------------------

def test_wilson_halfwidth_shrinks_with_samples():
    assert wilson_halfwidth(0, 0) == float("inf")
    assert wilson_halfwidth(0, 100) > wilson_halfwidth(0, 10_000) > 0.0
    assert wilson_halfwidth(50, 100) == pytest.approx(0.0968, abs=1e-3)


def test_early_stopping_cuts_point_short_identically():
    config = MCCDMAConfig(user_codes=(0, 3))
    ref, bat = _pair(config, batch_frames=8, ci_halfwidth=0.05, min_frames=8)
    r_ref = ref.simulate_point("qpsk", 8.0, 64, seed=0)  # clean channel: stops fast
    r_bat = bat.simulate_point("qpsk", 8.0, 64, seed=0)
    assert r_ref == r_bat
    assert r_ref.n_frames == 8  # stopped at the first eligible batch boundary
    full = LinkSimulationEngine(config, LinkEngineConfig(batch_frames=8))
    assert full.simulate_point("qpsk", 8.0, 64, seed=0).n_frames == 64


def test_engine_config_validation():
    with pytest.raises(ValueError):
        LinkEngineConfig(batch_frames=0)
    with pytest.raises(ValueError):
        LinkEngineConfig(ci_halfwidth=-1.0)
    with pytest.raises(ValueError):
        LinkEngineConfig(min_frames=0)


# -- observability --------------------------------------------------------------

def test_engine_emits_batch_and_run_events():
    engine = LinkSimulationEngine(engine=LinkEngineConfig(batch_frames=2))
    with use_tracer(Tracer()) as tracer:
        engine.simulate("qpsk", [1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    rows = flow_rows(tracer.spans)
    assert [e.stage for e in rows] == ["link:batch"] * 3 + ["link:run"]  # ceil(5 / 2)
    batch = rows[-2]
    assert batch.metrics["frames"] == 1 and batch.metrics["frames_done"] == 5
    assert set(batch.metrics) == {
        "frames", "frames_done", "error_bits", "ber", "ci_halfwidth", "batched",
    }
    run = rows[-1]
    assert run.flow == "link:qpsk"
    assert run.metrics["frames"] == 5 and run.metrics["early_stopped"] is False
    assert set(run.metrics) == {
        "frames", "frames_requested", "ber", "switches", "early_stopped", "batched",
    }


# -- SNR sweeps through the exec machinery --------------------------------------

def test_sweep_points_serial_matches_direct_simulation():
    config = MCCDMAConfig(user_codes=(0, 5))
    engine = LinkSimulationEngine(config, LinkEngineConfig(batch_frames=4))
    results = engine.sweep_points("adaptive", [0.0, 6.0], 8, seed=3, jobs=0)
    for i, snr_db in enumerate([0.0, 6.0]):
        seed = np.random.SeedSequence(3, spawn_key=(i,))
        direct = engine.simulate_point("adaptive", snr_db, 8, seed=seed)
        assert results[i] == direct


def test_sweep_points_sharded_matches_serial():
    config = MCCDMAConfig(user_codes=(0,))
    engine = LinkSimulationEngine(config, LinkEngineConfig(batch_frames=4))
    serial = engine.sweep_points("qpsk", [0.0, 4.0, 8.0], 8, seed=1, jobs=0)
    sharded = engine.sweep_points("qpsk", [0.0, 4.0, 8.0], 8, seed=1, jobs=2)
    assert sharded == serial


def test_link_point_job_honours_fault_injection():
    from repro.exec.worker import run_job

    job = LinkPointJob(
        job_id="p0", strategy="qpsk", snr_db=4.0, n_frames=4,
        seed_entropy=0, point_index=0,
        config=MCCDMAConfig(), engine=LinkEngineConfig(batch_frames=4),
        fault="raise",
    )
    with pytest.raises(RuntimeError, match="injected fault"):
        run_job(job)
