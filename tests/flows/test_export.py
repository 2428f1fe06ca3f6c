"""Tests for executive serialization and the build-directory export."""

import hashlib

import pytest

from repro.executive import ExecutiveRunner
from repro.executive import io as executive_io
from repro.flows import DesignFlow, parse_constraints
from repro.flows.export import export_build_directory
from repro.mccdma import Modulation
from repro.mccdma.casestudy import build_mccdma_design

CONSTRAINTS = """
[module mod_qpsk]
region    = D1
operation = mod_qpsk

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
"""


@pytest.fixture(scope="module")
def flow_result():
    design = build_mccdma_design()
    flow = DesignFlow.from_design(
        design, dynamic_constraints=parse_constraints(CONSTRAINTS)
    )
    flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
    return flow.run()


def test_executive_json_roundtrip(flow_result):
    program = flow_result.executive
    back = executive_io.loads(executive_io.dumps(program))
    assert back.render() == program.render()
    assert back.edge_hops == program.edge_hops
    assert back.input_sources == program.input_sources
    # Enum condition values survive (Modulation members, not strings).
    values = back.condition_groups["modulation"]
    assert set(values) == {Modulation.QPSK, Modulation.QAM16}
    assert back.case_modules["modulation"][Modulation.QPSK]["D1"] == "mod_qpsk"


def test_reloaded_executive_simulates_identically(flow_result):
    program = flow_result.executive
    back = executive_io.loads(executive_io.dumps(program))
    plan = [Modulation.QPSK, Modulation.QAM16] * 2

    def run(p):
        report = ExecutiveRunner(
            p, n_iterations=len(plan),
            selector_values={"modulation": lambda it: plan[it]},
        ).run()
        return report.end_time_ns

    assert run(program) == run(back)


def test_executive_format_guards():
    with pytest.raises(executive_io.ExecutiveFormatError, match="invalid JSON"):
        executive_io.loads("{")
    with pytest.raises(executive_io.ExecutiveFormatError, match="not a repro"):
        executive_io.from_dict({"format": "x"})
    with pytest.raises(executive_io.ExecutiveFormatError, match="version"):
        executive_io.from_dict({"format": "repro-executive", "version": 7})
    with pytest.raises(executive_io.ExecutiveFormatError, match="unknown instruction"):
        executive_io.from_dict(
            {
                "format": "repro-executive",
                "version": 1,
                "operator_code": {"A": [{"type": "teleport"}]},
            }
        )


def test_export_build_directory(flow_result, tmp_path):
    written = export_build_directory(flow_result, tmp_path)
    relative = {str(p.relative_to(tmp_path)) for p in written}
    for expected in (
        "hdl/static_f1.vhd",
        "hdl/dyn_d1_mod_qpsk.vhd",
        "hdl/tb_dyn_d1_mod_qpsk.vhd",
        "constraints/top.ucf",
        "executive/macrocode.txt",
        "executive/executive.json",
        "models/algorithm.json",
        "models/board.json",
        "models/dynamic.constraints",
        "bitstreams/D1_dyn_D1_mod_qpsk.bit",
        "reports/flow.txt",
        "reports/synthesis.txt",
        "reports/par.txt",
    ):
        assert expected in relative, expected
    # The exported bitstream has the size the model predicts (address words
    # add 4 bytes per frame on top of the payload).
    bit = tmp_path / "bitstreams/D1_dyn_D1_mod_qpsk.bit"
    bs = flow_result.modular.bitstreams[("D1", "dyn_D1_mod_qpsk")]
    expected_size = sum(4 + len(f.payload) for f in bs.frames)
    assert bit.stat().st_size == expected_size
    # The exported models reload.
    from repro.arch import io as arch_io
    from repro.dfg import io as dfg_io

    graph = dfg_io.load(tmp_path / "models/algorithm.json")
    assert "mod_qpsk" in graph
    board = arch_io.load(tmp_path / "models/board.json")
    assert board.regions() == ["D1"]
    program = executive_io.load(tmp_path / "executive/executive.json")
    assert program.render() == flow_result.executive.render()


def test_export_without_optional_parts(flow_result, tmp_path):
    written = export_build_directory(
        flow_result, tmp_path, include_bitstreams=False, include_testbenches=False
    )
    relative = {str(p.relative_to(tmp_path)) for p in written}
    assert not any(r.startswith("bitstreams/") for r in relative)
    assert not any("tb_" in r for r in relative)


#: sha256 of the case study's exported partial bitstreams (address word +
#: payload per frame), as ``repro export`` writes them.
CASE_STUDY_BIT_SHA256 = {
    "D1_dyn_D1_mod_qam16.bit": "6c61e3863c4fff55a9be1ad52a3db64df95c92e3ecc71f17165f980d4480fca8",
    "D1_dyn_D1_mod_qpsk.bit": "96351f62c857e5895afe82b82026ec349dccd3928a8b28f8ab50386b6a018cff",
}


def test_exported_bitstream_bytes_are_pinned(flow_result, tmp_path):
    export_build_directory(flow_result, tmp_path, include_testbenches=False)
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "bitstreams").iterdir()
    }
    assert written == CASE_STUDY_BIT_SHA256
