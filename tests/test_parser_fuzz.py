"""Every text handed to a file parser either parses or raises ScenarioParseError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from syslab.complexes import parse_complex_text
from syslab.errors import ScenarioParseError
from syslab.isodyn import parse_permutation_text
from syslab.scenario import (COMPLEX_KINDS, CONSTANTS_KEYS, ISOMETRY_KEYS,
                             SCENARIO_KEYS, TASK_KINDS, parse_scenario_text)


def _parses_or_rejects(parse, text):
    try:
        parse(text)
    except ScenarioParseError:
        pass


def _texts(lines, header):
    """Arbitrary text, or lines drawn from a format's own vocabulary, with or
    without the format's header first."""
    listed = st.lists(lines, max_size=12)
    return st.one_of(st.text(), listed.map("\n".join),
                     listed.map(lambda ls: "\n".join([header, *ls])))


_KEYS = sorted({"kind", *SCENARIO_KEYS, *CONSTANTS_KEYS, *ISOMETRY_KEYS,
                *(k for schema in TASK_KINDS.values() for k in schema),
                *(k for schema in COMPLEX_KINDS.values() for k in schema)})
_VALUES = ["0", "-3", "12", "-1", "1", "2", "abc", "4 2", "0, 0", "1 2 3", "yes", "maybe", "main",
           "g", "translate(1,0)", "glide(2, x)", "rot60^2 @ (1,1)", "rot60^",
           "../nowhere.flag", "../x.svg", "/tmp/x.svg", "fig/x.svg", "octahedron", "book-9", "1/2 1", *TASK_KINDS, *COMPLEX_KINDS]


def _section(headers, keys):
    line = st.builds("{} = {}".format, st.sampled_from(sorted(keys)), st.sampled_from(_VALUES))
    return st.builds(lambda h, ls: "\n".join([h, *ls]), headers, st.lists(line, max_size=4))


_SECTIONS = st.one_of(
    _section(st.just("[scenario]"), SCENARIO_KEYS),
    _section(st.just("[constants]"), CONSTANTS_KEYS),
    _section(st.just("[complex main]"),
             {"kind", *(k for s in COMPLEX_KINDS.values() for k in s)}),
    _section(st.just("[task t]"), {"kind", *(k for s in TASK_KINDS.values() for k in s)}),
    _section(st.just("[isometry g]"), ISOMETRY_KEYS),
    _section(st.one_of(st.sampled_from(["[ ]", "[DEFAULT]", "[task]", "[scenario x]",
                                        "[complex a b]"]),
                       st.builds("[{}]".format, st.text(max_size=6))), _KEYS),
)
_SCENARIO_LINES = st.one_of(
    st.sampled_from(["[scenario]", "[constants]", "[complex main]", "[task t]",
                     "[isometry g]", "# comment", "", "  continued"]),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), st.sampled_from(_VALUES)),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), st.text(max_size=8)),
    st.text(max_size=12),
)

_VERTEX = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["x", "1.5", "", "9" * 5000]))
_COMPLEX_LINES = st.one_of(
    st.just("flagcomplex v1"), st.just("# comment"), st.just(""),
    st.builds("{} {}".format, _VERTEX, _VERTEX),
    st.lists(_VERTEX, max_size=3).map(" ".join),
    st.text(max_size=12),
)
_PERM_LINES = st.one_of(
    st.just("perm v1"), st.just("# comment"), st.just(""),
    st.builds("{} -> {}".format, _VERTEX, _VERTEX),
    st.builds("{} -> {} -> {}".format, _VERTEX, _VERTEX, _VERTEX),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_texts(_SCENARIO_LINES, "[scenario]"),
                 st.lists(_SECTIONS, max_size=5).map("\n".join)))
def test_scenario_parser_total(text):
    _parses_or_rejects(parse_scenario_text, text)


@settings(max_examples=150, deadline=None)
@given(_texts(_COMPLEX_LINES, "flagcomplex v1"))
def test_complex_parser_total(text):
    _parses_or_rejects(parse_complex_text, text)


@settings(max_examples=150, deadline=None)
@given(_texts(_PERM_LINES, "perm v1"))
def test_permutation_parser_total(text):
    _parses_or_rejects(parse_permutation_text, text)
