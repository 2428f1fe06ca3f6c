"""Run totals: the telemetry hub's single-window ``run`` store.

Every layer writes its whole-run numbers into ``hub.store("run")`` at
``t=0``; the store's :meth:`snapshot` is the ``--trace`` manifest's
``metrics`` block, and traced pool workers' totals fold in through the
same ``to_rows``/``store_row`` path the windowed series use.
"""

import pytest

from repro.obs import Telemetry, get_telemetry, use_telemetry
from repro.obs.telemetry import store_row


def _fold(hub, rows):
    """What the sweep engine does with a traced worker's rows."""
    for row in rows:
        if not row.get("meta"):
            store_row(hub.store(row["domain"]), row)


def _worker_rows(jobs, depth, sample):
    hub = Telemetry()
    totals = hub.store("run")
    totals.counter_add("jobs", 0, jobs)
    totals.gauge_set("depth", 0, depth)
    totals.observe("t", 0, sample)
    return hub.to_rows()


def test_counter_accumulates_and_rejects_negative():
    totals = Telemetry().store("run")
    totals.counter_add("jobs", 0)
    totals.counter_add("jobs", 0, 4)
    assert totals.snapshot()["jobs"] == {"type": "counter", "value": 5}
    with pytest.raises(ValueError):
        totals.counter_add("jobs", 0, -1)


def test_gauge_keeps_last_value():
    totals = Telemetry().store("run")
    totals.gauge_set("depth", 0, 3)
    totals.gauge_set("depth", 0, 1)
    assert totals.snapshot()["depth"] == {"type": "gauge", "value": 1}


def test_run_store_is_one_window_for_any_write_time():
    totals = Telemetry().store("run")
    for t in (0, 1, 1_800_000_000_000_000_000):  # epoch ns still lands in window 0
        totals.counter_add("n", t)
    assert totals.window_indices() == [0]
    assert totals.total("n") == 3


def test_kind_mismatch_raises():
    totals = Telemetry().store("run")
    totals.counter_add("x", 0)
    with pytest.raises(TypeError):
        totals.gauge_set("x", 0, 1)


def test_snapshot_is_sorted_and_typed():
    totals = Telemetry().store("run")
    totals.gauge_set("b", 0, 2)
    totals.counter_add("a", 0)
    totals.counter_add("a", 0, 2, policy="lru")
    totals.observe("c", 0, 0.002)
    snapshot = totals.snapshot()
    assert list(snapshot) == ["a", "a{policy=lru}", "b", "c"]
    assert snapshot["a"]["type"] == "counter"
    assert snapshot["a{policy=lru}"]["value"] == 2
    assert snapshot["b"]["type"] == "gauge"
    assert snapshot["c"]["type"] == "quantile" and snapshot["c"]["count"] == 1


def test_quantile_snapshot_reads_equal_values_exactly():
    totals = Telemetry().store("run")
    for _ in range(6):
        totals.observe("clock_mhz", 0, 66)
    entry = totals.snapshot()["clock_mhz"]
    assert entry["count"] == 6 and entry["sum"] == 396
    # the sketch estimate is clamped into the exact [min, max]
    assert entry["min"] == entry["max"] == entry["p50"] == entry["p99"] == 66


def test_row_merge_combines_all_kinds():
    main = Telemetry()
    main.store("run").counter_add("jobs", 0, 1)
    main.store("run").observe("t", 0, 0.7)
    main.store("run").observe("t", 0, 1.5)
    _fold(main, _worker_rows(2, 7, 0.5))
    snapshot = main.store("run").snapshot()
    assert snapshot["jobs"]["value"] == 3
    assert snapshot["depth"]["value"] == 7
    assert snapshot["t"]["count"] == 3
    assert snapshot["t"]["sum"] == pytest.approx(2.7)
    assert (snapshot["t"]["min"], snapshot["t"]["max"]) == (0.5, 1.5)


def test_row_merge_rejects_unknown_type():
    with pytest.raises(ValueError):
        store_row(
            Telemetry().store("run"),
            {"type": "meter", "name": "x", "window": 0, "value": 1},
        )


def test_ambient_hub_scopes_run_totals():
    assert get_telemetry() is None
    with use_telemetry() as outer:
        with use_telemetry() as inner:
            get_telemetry().store("run").counter_add("scoped", 0)
        assert get_telemetry() is outer
    assert "scoped" in inner.store("run").snapshot()
    assert outer.domains() == []
    assert get_telemetry() is None


def test_row_merge_into_empty_hub_adopts_everything():
    rows = _worker_rows(4, 2, 1.5)
    empty = Telemetry()
    _fold(empty, rows)
    assert empty.to_rows() == rows
    # and an empty hub's rows folded in change nothing
    _fold(empty, Telemetry().to_rows())
    assert empty.to_rows() == rows


def test_row_merge_is_associative_across_workers():
    a, b, c = _worker_rows(1, 5, 0.5), _worker_rows(2, 6, 1.5), _worker_rows(3, 7, 9.0)

    left = Telemetry()  # (a + b) + c
    for rows in (a, b, c):
        _fold(left, rows)

    inner = Telemetry()  # a + (b + c)
    _fold(inner, b)
    _fold(inner, c)
    right = Telemetry()
    _fold(right, a)
    _fold(right, inner.to_rows())

    # counters and sketches agree exactly; the gauge takes the last value
    # in merge order, which both orders share (c's)
    assert left.to_rows() == right.to_rows()


def test_row_merge_disjoint_names_and_domains_coexist():
    main = Telemetry()
    main.store("run").observe("coarse", 0, 3.0)
    other = Telemetry()
    other.store("run").observe("fine", 0, 0.5)
    other.store("sim").counter_add("fleet.demands", 7)
    _fold(main, other.to_rows())
    assert set(main.store("run").snapshot()) == {"coarse", "fine"}
    # rows land in their own domain's store, on its own window axis
    assert main.store("sim").total("fleet.demands") == 1
