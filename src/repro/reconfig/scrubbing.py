"""Configuration scrubbing: periodic repair of upset configurations.

Mobile/aerospace deployments of partially reconfigurable FPGAs pair the
configuration port with a *scrubber*: a background process that periodically
reads the configuration back to detect single-event upsets and rewrites the
affected region before errors accumulate.  The scrubber shares the single
configuration port with the demand/prefetch traffic of the reconfiguration
manager, so scrub rate trades configuration availability against port
contention.

This module extends the runtime manager of this reproduction with that
capability; it is beyond the 2006 paper's scope but uses only mechanisms the
paper's architecture already contains (the builder's readback/rewrite paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.reconfig.manager import ReconfigurationManager
from repro.reconfig.protocol import ProtocolConfigurationBuilder
from repro.sim import Simulator

__all__ = ["SEUInjector", "ScrubberStats", "ConfigurationScrubber"]


class SEUInjector:
    """Poisson single-event-upset process over the dynamic regions.

    Corrupts the currently-configured content of a random region at
    exponentially distributed intervals and records when each region's
    corruption started (``corrupt_since``), so availability can be computed
    exactly from upset to repair.
    """

    def __init__(
        self,
        sim: Simulator,
        builder: ProtocolConfigurationBuilder,
        regions: list[str],
        mean_interval_ns: float,
        seed: int = 0,
    ):
        if mean_interval_ns <= 0:
            raise ValueError("mean upset interval must be positive")
        if not regions:
            raise ValueError("need at least one region to upset")
        self.sim = sim
        self.builder = builder
        self.regions = list(regions)
        self.mean_interval_ns = mean_interval_ns
        self.rng = np.random.default_rng(seed)
        self.upsets = 0
        self.upset_times: list[int] = []
        #: region -> time its current corruption began (None when intact)
        self.corrupt_since: dict[str, Optional[int]] = {}
        sim.process(self._run(), name="seu")

    def _run(self):
        while True:
            delay = max(1, int(self.rng.exponential(self.mean_interval_ns)))
            yield self.sim.timeout(delay)
            region = self.regions[int(self.rng.integers(len(self.regions)))]
            content = self.builder._device_content.get(region)
            if content is not None and content[1]:
                self.builder._device_content[region] = (content[0], False)
                self.upsets += 1
                self.upset_times.append(self.sim.now)
                self.corrupt_since[region] = self.sim.now

    def mark_repaired(self, region: str) -> Optional[int]:
        """Clear the corruption marker; returns when it had started."""
        return self.corrupt_since.pop(region, None)


@dataclass
class ScrubberStats:
    scrub_cycles: int = 0
    repairs: int = 0
    #: total time regions spent carrying corrupted configuration (ns)
    corrupted_ns: int = 0


class ConfigurationScrubber:
    """Periodic readback-and-repair over all regions of a manager."""

    def __init__(
        self,
        sim: Simulator,
        manager: ReconfigurationManager,
        interval_ns: int,
        injector: Optional[SEUInjector] = None,
    ):
        if interval_ns <= 0:
            raise ValueError("scrub interval must be positive")
        self.sim = sim
        self.manager = manager
        self.builder = manager.builder
        self.interval_ns = interval_ns
        self.injector = injector
        self.stats = ScrubberStats()
        sim.process(self._run(), name="scrubber")

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval_ns)
            self.stats.scrub_cycles += 1
            for region in self.builder.store.regions():
                content = self.builder._device_content.get(region)
                if content is None:
                    continue
                module, ok = content
                if ok:
                    continue
                # Readback confirms the upset, then a rewrite repairs it.
                confirmed_ok = yield self.sim.process(self.builder.readback(region, module))
                if confirmed_ok:
                    continue  # repaired by a demand reload meanwhile
                saved_injector = self.builder.upset_injector
                self.builder.upset_injector = None  # the repair write is clean
                try:
                    yield self.sim.process(self.builder.load(region, module))
                finally:
                    self.builder.upset_injector = saved_injector
                self.builder._device_content[region] = (module, True)
                self.stats.repairs += 1
                if self.injector is not None:
                    started = self.injector.mark_repaired(region)
                    if started is not None:
                        self.stats.corrupted_ns += self.sim.now - started

    def availability(self, horizon_ns: int) -> float:
        """Fraction of the horizon the configurations were intact (exact
        when an injector is attached; repairs-to-date plus open corruption)."""
        corrupted = self.stats.corrupted_ns
        if self.injector is not None:
            for region, since in self.injector.corrupt_since.items():
                if since is not None:
                    corrupted += max(0, horizon_ns - since)
        if horizon_ns <= 0:
            return 1.0
        return max(0.0, 1.0 - corrupted / horizon_ns)
