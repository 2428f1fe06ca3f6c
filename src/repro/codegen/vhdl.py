"""VHDL text construction helpers."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

__all__ = ["vhdl_identifier", "Port", "VhdlWriter"]

_IDENT_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9_]*$")
_ILLEGAL_RE = re.compile(r"[^a-zA-Z0-9_]")
_UNDERSCORES_RE = re.compile(r"_+")
_RESERVED = {
    "abs", "access", "after", "alias", "all", "and", "architecture", "array",
    "assert", "attribute", "begin", "block", "body", "buffer", "bus", "case",
    "component", "configuration", "constant", "disconnect", "downto", "else",
    "elsif", "end", "entity", "exit", "file", "for", "function", "generate",
    "generic", "group", "guarded", "if", "impure", "in", "inertial", "inout",
    "is", "label", "library", "linkage", "literal", "loop", "map", "mod",
    "nand", "new", "next", "nor", "not", "null", "of", "on", "open", "or",
    "others", "out", "package", "port", "postponed", "procedure", "process",
    "pure", "range", "record", "register", "reject", "rem", "report",
    "return", "rol", "ror", "select", "severity", "signal", "shared", "sla",
    "sll", "sra", "srl", "subtype", "then", "to", "transport", "type",
    "unaffected", "units", "until", "use", "variable", "wait", "when",
    "while", "with", "xnor", "xor",
}


def vhdl_identifier(name: str) -> str:
    """Sanitize an arbitrary design name into a legal VHDL identifier."""
    ident = _ILLEGAL_RE.sub("_", name)
    ident = _UNDERSCORES_RE.sub("_", ident).strip("_")
    if not ident or not ident[0].isalpha():
        ident = "s_" + ident
    if ident.lower() in _RESERVED:
        ident += "_i"
    assert _IDENT_RE.match(ident), ident
    return ident


@dataclass(frozen=True, slots=True)
class Port:
    """An entity port."""

    name: str
    direction: str  # "in" | "out" | "inout"
    vhdl_type: str  # e.g. "std_logic", "std_logic_vector(7 downto 0)"

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out", "inout"):
            raise ValueError(f"port {self.name!r}: bad direction {self.direction!r}")

    def declaration(self) -> str:
        return f"{vhdl_identifier(self.name)} : {self.direction} {self.vhdl_type}"


def vector(width: int) -> str:
    """``std_logic_vector`` of ``width`` bits (or plain ``std_logic``)."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if width == 1:
        return "std_logic"
    return f"std_logic_vector({width - 1} downto 0)"


class VhdlWriter:
    """Builds a VHDL design unit with consistent indentation."""

    def __init__(self, indent: str = "  "):
        self._lines: list[str] = []
        self._level = 0
        self._indent = indent

    # -- raw text ---------------------------------------------------------------

    def line(self, text: str = "") -> "VhdlWriter":
        self._lines.append(self._indent * self._level + text if text else "")
        return self

    def comment(self, text: str) -> "VhdlWriter":
        for chunk in text.splitlines():
            self.line(f"-- {chunk}")
        return self

    def blank(self) -> "VhdlWriter":
        return self.line("")

    def push(self) -> "VhdlWriter":
        self._level += 1
        return self

    def pop(self) -> "VhdlWriter":
        if self._level == 0:
            raise ValueError("indentation underflow")
        self._level -= 1
        return self

    # -- standard structures --------------------------------------------------------

    def header(self, title: str) -> "VhdlWriter":
        self.comment("=" * 68)
        self.comment(title)
        self.comment("Generated by the repro design flow (SynDEx-style translation).")
        self.comment("=" * 68)
        self.line("library ieee;")
        self.line("use ieee.std_logic_1164.all;")
        self.line("use ieee.numeric_std.all;")
        self.blank()
        return self

    def entity(self, name: str, ports: Sequence[Port]) -> "VhdlWriter":
        ident = vhdl_identifier(name)
        self.line(f"entity {ident} is")
        self.push()
        if ports:
            self.line("port (")
            self.push()
            for i, port in enumerate(ports):
                sep = ";" if i < len(ports) - 1 else ""
                self.line(port.declaration() + sep)
            self.pop()
            self.line(");")
        self.pop()
        self.line(f"end entity {ident};")
        self.blank()
        return self

    def begin_architecture(self, arch: str, of_entity: str) -> "VhdlWriter":
        self.line(f"architecture {vhdl_identifier(arch)} of {vhdl_identifier(of_entity)} is")
        self.push()
        return self

    def declare_signal(self, name: str, vhdl_type: str, init: Optional[str] = None) -> "VhdlWriter":
        init_txt = f" := {init}" if init else ""
        self.line(f"signal {vhdl_identifier(name)} : {vhdl_type}{init_txt};")
        return self

    def declare_state_type(self, type_name: str, states: Iterable[str]) -> "VhdlWriter":
        names = ", ".join(vhdl_identifier(s) for s in states)
        self.line(f"type {vhdl_identifier(type_name)} is ({names});")
        return self

    def begin_body(self) -> "VhdlWriter":
        self.pop()
        self.line("begin")
        self.push()
        return self

    def end_architecture(self, arch: str) -> "VhdlWriter":
        self.pop()
        self.line(f"end architecture {vhdl_identifier(arch)};")
        self.blank()
        return self

    def begin_process(self, label: str, sensitivity: Sequence[str]) -> "VhdlWriter":
        sens = ", ".join(vhdl_identifier(s) for s in sensitivity)
        self.line(f"{vhdl_identifier(label)} : process ({sens})")
        self.line("begin")
        self.push()
        return self

    def end_process(self, label: str) -> "VhdlWriter":
        self.pop()
        self.line(f"end process {vhdl_identifier(label)};")
        self.blank()
        return self

    def render(self) -> str:
        if self._level != 0:
            raise ValueError(f"unbalanced writer (level {self._level}) — missing pop()?")
        return "\n".join(self._lines) + "\n"
