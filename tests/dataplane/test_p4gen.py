"""P4-16 generator: structural fidelity to the running configuration."""

import pathlib
import re
import runpy

import pytest

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.constants import P4AUTH_HEADER
from repro.dataplane.p4gen import generate_p4, loc_estimate
from repro.dataplane.switch import DataplaneSwitch


@pytest.fixture
def dataplane():
    switch = DataplaneSwitch("s1", num_ports=8)
    switch.registers.define("split_ratio", 64, 4)
    switch.registers.define("path_latency", 64, 2)
    dp = P4AuthDataplane(switch, k_seed=0x1).install()
    dp.map_register("split_ratio")
    dp.map_register("path_latency")
    return dp


def test_header_declaration_matches_wire_format(dataplane):
    source = generate_p4(dataplane)
    assert "header p4auth_t {" in source
    for fname, bits in P4AUTH_HEADER.fields:
        assert f"bit<{bits}> {fname};" in source


def test_all_ten_register_arrays_declared(dataplane):
    source = generate_p4(dataplane)
    registers = dataplane.switch.registers
    p4auth_regs = [n for n in registers.names() if n.startswith("p4auth_")]
    assert len(p4auth_regs) == 10
    for name in p4auth_regs:
        register = registers.get(name)
        assert (f"register<bit<{register.width_bits}>>"
                f"({register.size}) {name};") in source


def test_mapped_registers_get_actions_and_entries(dataplane):
    source = generate_p4(dataplane)
    for name in ("split_ratio", "path_latency"):
        assert f"action {name}_read()" in source
        assert f"action {name}_write()" in source
        assert f"-> {name}_read" in source
        assert f"-> {name}_write" in source


def test_parser_covers_every_message_type(dataplane):
    source = generate_p4(dataplane)
    for state in ("parse_reg_op", "parse_eak", "parse_adhkd",
                  "parse_keyctl", "parse_alert"):
        assert state in source


def test_verify_and_sign_controls_present(dataplane):
    source = generate_p4(dataplane)
    assert "control P4AuthVerify" in source
    assert "control P4AuthSign" in source
    assert "compute_digest" in source  # the paper's BMv2 extern


def test_loc_is_in_the_papers_ballpark(dataplane):
    """§VII: 'P4Auth data plane has 400 lines of code written in P4'.

    The generated skeleton should land in the low hundreds — same order
    as the paper's artifact."""
    source = generate_p4(dataplane)
    loc = loc_estimate(source)
    assert 100 <= loc <= 500, loc


def test_braces_balance(dataplane):
    source = generate_p4(dataplane)
    assert source.count("{") == source.count("}")


def test_loc_estimate_ignores_comments_and_blanks():
    source = "/* c */\n\n// line\nreal_line;\n/* multi\nline\ncomment */\n"
    assert loc_estimate(source) == 1


# -- the parser and the header declarations read core/constants.py --------

def _parser_text(source):
    start = source.index("parser P4AuthParser")
    return source[start:source.index("/* -------- verify-on-ingress")]


def test_one_select_row_per_grammar_row(dataplane):
    """Each ``select`` row of the emitted parser is a grammar row and
    each grammar row with a payload is a ``select`` row: ``hdrType``
    rows for the payloads any ``msgType`` carries, ``msgType`` rows for
    Fig 14's eight key-exchange messages."""
    from repro.core.constants import MESSAGE_GRAMMAR, HdrType

    rows = re.findall(r"^\s+(\d+): parse_(\w+);$", _parser_text(
        generate_p4(dataplane)), flags=re.MULTILINE)
    expected = []
    for (hdr_type, msg_type), payload in MESSAGE_GRAMMAR.items():
        if payload is None:
            continue
        if msg_type is None:
            expected.append((str(int(hdr_type)), payload.name))
        else:
            expected.append((str(int(msg_type)), payload.name))
    expected.append((str(int(HdrType.KEY_EXCHANGE)), "key_exchange"))
    assert sorted(rows) == sorted(expected)
    assert len(rows) == 2 + 1 + 8


def test_one_header_declaration_per_wire_header(dataplane):
    from repro.core.constants import P4AUTH_HEADERS

    declared = re.findall(r"^header (\w+)_t \{$", generate_p4(dataplane),
                          flags=re.MULTILINE)
    assert declared == ["ethernet"] + [h.name for h in P4AUTH_HEADERS]


def test_export_example_matches_golden():
    """``examples/export_p4.py``'s deployment, byte for byte as the
    hand-typed parser emitted it before the grammar table existed."""
    root = pathlib.Path(__file__).resolve().parents[2]
    example = runpy.run_path(str(root / "examples" / "export_p4.py"))
    source = generate_p4(example["build_dataplane"](),
                         program_name="p4auth_routescout")
    golden = pathlib.Path(__file__).parent / "golden" / "p4auth_routescout.p4"
    assert source == golden.read_text()
