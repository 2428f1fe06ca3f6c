"""Tests for the modular floorplanner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    Floorplan,
    FloorplanError,
    Floorplanner,
    Netlist,
    NetlistModule,
    ResourceVector,
    XC2V1000,
    XC2V2000,
    XC2V3000,
)
from repro.fabric.floorplan import MIN_WIDTH_CLB, WIDTH_STEP_CLB
from repro.fabric.netlist import NetlistPort


def region_variant(name, region, luts=500, ffs=400, brams=0, width_bits=16):
    return NetlistModule(
        name=name,
        resources=ResourceVector(slices=-(-max(luts, ffs) // 2), luts=luts, ffs=ffs, brams=brams),
        ports=[NetlistPort("din", width_bits, "in"), NetlistPort("dout", width_bits, "out")],
        reconfigurable=True,
        region=region,
    )


def static_module(luts=2000, ffs=1500):
    return NetlistModule(
        name="static",
        resources=ResourceVector(slices=-(-max(luts, ffs) // 2), luts=luts, ffs=ffs),
        ports=[NetlistPort("dout", 16, "out"), NetlistPort("din", 16, "in")],
    )


def one_region_netlist():
    nl = Netlist("top")
    nl.add_module(static_module())
    nl.add_module(region_variant("qpsk", "D1", luts=400, ffs=350))
    nl.add_module(region_variant("qam16", "D1", luts=700, ffs=500))
    nl.connect("static", "dout", "qpsk", "din")
    nl.connect("qpsk", "dout", "static", "din")
    return nl


def test_place_enforces_min_width():
    plan = Floorplan(XC2V2000)
    with pytest.raises(FloorplanError, match="4-slice minimum"):
        plan.place("D1", 0, 1)


def test_place_enforces_width_step():
    plan = Floorplan(XC2V2000)
    with pytest.raises(FloorplanError, match="multiple of 4 slices"):
        plan.place("D1", 0, 3)


def test_place_enforces_bounds_and_overlap():
    plan = Floorplan(XC2V2000)
    plan.place("D1", 44, 4)
    with pytest.raises(FloorplanError, match="outside"):
        plan.place("D2", 46, 4)
    with pytest.raises(FloorplanError, match="overlaps"):
        plan.place("D2", 42, 4)
    with pytest.raises(FloorplanError, match="already placed"):
        plan.place("D1", 0, 2)


def test_static_columns_and_capacity():
    plan = Floorplan(XC2V2000)
    plan.place("D1", 44, 4)
    static_cols = plan.static_columns()
    assert len(static_cols) == 44
    assert 44 not in static_cols
    cap = plan.static_capacity()
    assert cap.slices == 44 * 56 * 4


def test_boundary_column_right_edge_region():
    plan = Floorplan(XC2V2000)
    plan.place("D1", 44, 4)  # touches right edge
    assert plan.boundary_column("D1") == 44


def test_boundary_column_left_edge_region():
    plan = Floorplan(XC2V2000)
    plan.place("D1", 0, 4)
    assert plan.boundary_column("D1") == 4


def test_area_and_bitstream_queries():
    plan = Floorplan(XC2V2000)
    plan.place("D1", 44, 4)
    assert plan.area_fraction("D1") == pytest.approx(4 / 48)
    assert plan.partial_bitstream_bytes("D1") == XC2V2000.partial_bitstream_bytes(44, 4)


def test_floorplanner_places_one_region():
    nl = one_region_netlist()
    plan = Floorplanner(XC2V2000).plan(nl)
    p = plan.placements["D1"]
    assert p.width >= MIN_WIDTH_CLB
    assert p.width % WIDTH_STEP_CLB == 0
    # Worst variant (qam16, with margin) must fit the span.
    worst = nl.module("qam16").resources.scaled(1.10)
    assert worst.fits_in(plan.region_capacity("D1"))
    # Bus macros cover the boundary bits (32 total).
    carried = sum(m.data_bits for m in plan.bus_macros["D1"])
    assert carried >= 32


def test_floorplanner_paper_sizing_lands_near_8_percent():
    """With the case-study-scale variants, the region should be a narrow
    strip (<= ~12% of the device), like the paper's 8%."""
    plan = Floorplanner(XC2V2000).plan(one_region_netlist())
    assert plan.area_fraction("D1") <= 0.125


def test_floorplanner_two_regions_disjoint():
    nl = one_region_netlist()
    nl.add_module(region_variant("fft_a", "D2", luts=900, ffs=700, brams=2))
    nl.add_module(region_variant("fft_b", "D2", luts=800, ffs=650, brams=3))
    plan = Floorplanner(XC2V2000).plan(nl)
    p1, p2 = plan.placements["D1"], plan.placements["D2"]
    assert not p1.overlaps(p2)
    # BRAM requirement honoured.
    assert plan.region_capacity("D2").brams >= 3


def test_floorplanner_rejects_oversized_variant():
    nl = one_region_netlist()
    nl.add_module(region_variant("huge", "D1", luts=30_000, ffs=30_000))
    with pytest.raises(FloorplanError):
        Floorplanner(XC2V2000).plan(nl)


def test_floorplanner_rejects_oversized_static():
    nl = Netlist("top")
    nl.add_module(static_module(luts=21_000, ffs=21_000))
    nl.add_module(region_variant("a", "D1"))
    nl.add_module(region_variant("b", "D1"))
    with pytest.raises(FloorplanError, match="static"):
        Floorplanner(XC2V2000).plan(nl)


def test_floorplanner_margin_validation():
    with pytest.raises(ValueError):
        Floorplanner(XC2V2000, margin=0.5)


def test_summary_text():
    plan = Floorplanner(XC2V2000).plan(one_region_netlist())
    text = plan.summary()
    assert "D1" in text and "bus macros" in text and "static part" in text


@settings(max_examples=25, deadline=None)
@given(
    luts_a=st.integers(min_value=50, max_value=4000),
    luts_b=st.integers(min_value=50, max_value=4000),
    bits=st.integers(min_value=1, max_value=64),
)
def test_floorplanner_invariants_property(luts_a, luts_b, bits):
    """Whatever the variant sizes, a produced plan obeys the modular rules."""
    nl = Netlist("top")
    nl.add_module(static_module())
    nl.add_module(region_variant("va", "D1", luts=luts_a, ffs=luts_a, width_bits=bits))
    nl.add_module(region_variant("vb", "D1", luts=luts_b, ffs=luts_b, width_bits=bits))
    nl.connect("static", "dout", "va", "din") if bits == 16 else None
    plan = Floorplanner(XC2V2000).plan(nl)
    p = plan.placements["D1"]
    assert p.width % WIDTH_STEP_CLB == 0 and p.width >= MIN_WIDTH_CLB
    assert 0 <= p.col0 and p.col_end <= XC2V2000.clb_cols
    worst_luts = max(luts_a, luts_b)
    assert plan.region_capacity("D1").luts >= worst_luts


# -- static capacity against the column-by-column sum ----------------------------

DEVICES = [XC2V1000, XC2V2000, XC2V3000]


def column_sum_capacity(plan):
    """The static capacity as one-column spans add up (no bus macros)."""
    return ResourceVector.sum(plan.device.column_span_capacity(c, 1) for c in plan.static_columns())


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
def test_static_capacity_next_to_every_bram_column_and_edge(device):
    spans = [(0, 2), (device.clb_cols - 2, 2), (0, device.clb_cols)]
    for c in device.bram_cols:
        spans += [(c - 1, 2), (c, 2), (c - 2, 2), (c + 1, 2)]
    for col0, width in spans:
        plan = Floorplan(device)
        try:
            plan.place("D1", col0, width)
        except FloorplanError:
            continue
        assert plan.static_capacity() == column_sum_capacity(plan), (col0, width)
    assert Floorplan(device).static_capacity() == device.capacity()


@st.composite
def placed_plans(draw):
    device = draw(st.sampled_from(DEVICES))
    plan = Floorplan(device)
    for i in range(draw(st.integers(0, 4))):
        width = draw(st.integers(1, device.clb_cols // 2)) * WIDTH_STEP_CLB
        near = [0, device.clb_cols - width]
        for c in device.bram_cols:
            near += [c - 1, c, c - width, c + 1 - width]
        col0 = draw(st.one_of(st.sampled_from(near), st.integers(0, device.clb_cols - width)))
        try:
            plan.place(f"D{i + 1}", col0, width)
        except FloorplanError:
            pass
    return plan


@settings(max_examples=200, deadline=None)
@given(plan=placed_plans())
def test_static_capacity_matches_the_column_sum(plan):
    assert plan.static_capacity() == column_sum_capacity(plan)
