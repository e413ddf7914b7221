"""Scenario files: a flat INI dialect declaring complexes, isometries, tasks.

Grammar (documented in the README): sections are ``[scenario]``,
``[constants]``, ``[complex NAME]``, ``[isometry NAME]`` and ``[task NAME]``;
each holds ``key = value`` lines, ``#`` starts a comment. Tasks run in file
order and reference complexes and isometries by name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path, PurePath
from typing import Dict, List, Tuple

from . import eplane, samples
from .complexes import FlagComplex, load_complex
from .errors import PreconditionViolated, ScenarioParseError
from .euclid import GoodnessConstants

# Schemas map each key to (type, default). Every value is checked against its
# type, range included, at parse time; the default is REQUIRED, None (optional,
# no default), or the raw text the key takes when it is absent.
REQUIRED = object()

# task kind -> {parameter its runner handler reads: (type, default)}; "text"
# values that name a complex or isometry are checked against the file
TASK_KINDS = {
    "geodesic-pipeline": {"complex": ("text", REQUIRED), "from": ("vertex", REQUIRED),
                          "to": ("vertex", REQUIRED)},
    "goodness-sweep": {"complex": ("text", REQUIRED), "pairs": ("count", "20"),
                       "max_distance": ("count", "10"), "staircase_map": ("translation", None),
                       "staircase_length": ("count", "16"),
                       "staircase_origin": ("vertex", "0 0"), "ambient": ("sample", None)},
    "displacement-study": {"complex": ("text", REQUIRED), "isometry": ("text", REQUIRED),
                           "pairs": ("count", "10"), "max_distance": ("count", "20")},
    "contracting-suite": {"complex": ("text", REQUIRED), "pairs": ("count", "50"),
                          "doubling": ("nonnegative", "20"), "max_distance": ("count", "12"),
                          "cs": ("unit-fractions", "1/4 1/2 3/4"), "origin": ("vertex", "0 0")},
    "extendability-study": {"depth": ("depth", "10"), "control_pairs": ("count", "12"),
                            "control_span": ("count", "6")},
    "figure-render": {"complex": ("text", REQUIRED), "from": ("vertex", REQUIRED),
                      "to": ("vertex", REQUIRED), "out": ("relative-path", None)},
}

# [scenario], [constants] and [isometry NAME] keys
SCENARIO_KEYS = {"name": ("text", None), "seed": ("int", None)}
CONSTANTS_KEYS = {"C": ("nonnegative", None), "D": ("nonnegative", None),
                  "empirical": ("bool", None)}
ISOMETRY_KEYS = {"map": ("isometry", REQUIRED)}

# complex kind -> {parameter ComplexSpec.build reads: (type, default)}
COMPLEX_KINDS = {
    "eplane": {"radius": ("nonnegative", "8"), "center": ("vertex", "0 0")},
    "file": {"path": ("text", REQUIRED)},
    "tree": {"depth": ("depth", "8")},
    "sample": {"name": ("sample", REQUIRED)},
}


@dataclass
class ComplexSpec:
    """A complex section as its builder reads it (typed, defaults filled)."""

    name: str
    kind: str               # eplane | file | tree | sample
    values: Dict[str, object]

    def build(self, base_dir: Path) -> FlagComplex:
        v = self.values
        if self.kind == "eplane":
            return eplane.window(v["center"], v["radius"])
        if self.kind == "file":
            path = base_dir / v["path"]
            try:
                return load_complex(path)
            except (OSError, UnicodeDecodeError) as exc:
                raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
        if self.kind == "tree":
            return samples.tree_with_branches(v["depth"])
        return samples.BY_NAME[v["name"]]()  # sample


@dataclass
class TaskSpec:
    """A task as written (``params``, raw text, which reports echo as their
    inputs) and as its handler reads it (``values``: typed, defaults filled)."""

    name: str
    kind: str
    params: Dict[str, str]
    values: Dict[str, object] = field(default_factory=dict)


@dataclass
class Scenario:
    name: str
    seed: int
    constants: GoodnessConstants
    complexes: Dict[str, ComplexSpec]
    isometries: Dict[str, eplane.PlaneIsometry]
    tasks: List[TaskSpec]
    base_dir: Path = field(default_factory=Path)

    def complex(self, name: str) -> FlagComplex:
        if name not in self.complexes:
            raise ScenarioParseError(f"task references unknown complex {name!r}")
        return self.complexes[name].build(self.base_dir)

    def isometry(self, name: str) -> eplane.PlaneIsometry:
        if name not in self.isometries:
            raise ScenarioParseError(f"task references unknown isometry {name!r}")
        return self.isometries[name]


def _parse_axial(text: str) -> Tuple[int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ScenarioParseError(f"expected two integers, got {text!r}")
    return (_parse_int(parts[0]), _parse_int(parts[1]))


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ScenarioParseError(f"expected an integer, got {text!r}") from exc


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ScenarioParseError(f"expected one of true/false/yes/no/1/0, got {text!r}") from None


def _parse_count(text: str) -> int:
    n = _parse_int(text)
    if n < 1:
        raise ScenarioParseError(f"expected a count of at least 1, got {text!r}")
    return n


def _parse_nonnegative(text: str) -> int:
    n = _parse_int(text)
    if n < 0:
        raise ScenarioParseError(f"expected a nonnegative integer, got {text!r}")
    return n


def _parse_depth(text: str) -> int:
    """A tree depth: the branching tree and its study need at least 2."""
    n = _parse_int(text)
    if n < 2:
        raise ScenarioParseError(f"expected an integer of at least 2, got {text!r}")
    return n


def _parse_unit_fractions(text: str) -> List[Fraction]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ScenarioParseError("expected one or more fractions, got nothing")
    try:
        values = [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"expected fractions such as 1/4, got {text!r}") from exc
    for tok, value in zip(tokens, values):
        if not 0 <= value <= 1:
            raise ScenarioParseError(f"expected fractions in [0, 1], got {tok!r}")
    return values


def _parse_translation(text: str) -> eplane.PlaneIsometry:
    h = eplane.parse_isometry(text)
    if not h.is_translation or h.shift == (0, 0):
        raise ScenarioParseError(f"expected a nonzero translation, got {text!r}")
    return h


def _parse_relative_path(text: str) -> str:
    """A file path inside the output directory: relative, with no '..' part."""
    path = PurePath(text)
    if not path.parts or path.is_absolute() or ".." in path.parts:
        raise ScenarioParseError(
            f"expected a relative path with no '..' part, got {text!r}")
    return text


def _parse_sample(text: str) -> str:
    if text not in samples.BY_NAME:
        raise ScenarioParseError(f"unknown sample complex {text!r}")
    return text


_VALUE_PARSERS = {"int": _parse_int, "count": _parse_count,
                  "nonnegative": _parse_nonnegative, "depth": _parse_depth,
                  "vertex": _parse_axial,
                  "text": str, "bool": _parse_bool, "unit-fractions": _parse_unit_fractions,
                  "isometry": eplane.parse_isometry, "translation": _parse_translation,
                  "relative-path": _parse_relative_path, "sample": _parse_sample}


def _parse_value(where: str, key: str, kind: str, value: str):
    try:
        return _VALUE_PARSERS[kind](value)
    except ScenarioParseError as exc:
        raise ScenarioParseError(f"{where} key {key!r}: {exc}") from exc


def _check_params(where: str, schema: Dict, items: Dict[str, str]) -> Dict:
    """Reject missing and unknown keys and malformed values; return the
    parsed values, with the defaults of absent keys filled in."""
    missing = [key for key, (_, default) in schema.items()
               if default is REQUIRED and key not in items]
    if missing:
        raise ScenarioParseError(f"{where} lacks {', '.join(missing)}")
    parsed = {}
    for key, value in items.items():
        if key not in schema:
            raise ScenarioParseError(f"{where} has unknown key {key!r}")
        parsed[key] = _parse_value(where, key, schema[key][0], value)
    for key, (kind, default) in schema.items():
        if key not in parsed and isinstance(default, str):
            parsed[key] = _VALUE_PARSERS[kind](default)
    return parsed


def parse_scenario_text(text: str, base_dir: Path = Path(".")) -> Scenario:
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(f"cannot parse scenario: {exc}") from exc

    name = "unnamed"
    seed = 0
    constants_kwargs: Dict = {}
    complexes: Dict[str, ComplexSpec] = {}
    isometries: Dict[str, eplane.PlaneIsometry] = {}
    tasks: List[TaskSpec] = []

    for section in parser.sections():
        items = dict(parser.items(section))
        words = section.split()
        head = words[0] if words else ""
        if head in ("scenario", "constants") and len(words) != 1:
            raise ScenarioParseError(f"bad section [{section}]")
        if head == "scenario":
            values = _check_params("[scenario]", SCENARIO_KEYS, items)
            name = values.get("name", name)
            seed = values.get("seed", seed)
        elif head == "constants":
            constants_kwargs.update(_check_params("[constants]", CONSTANTS_KEYS, items))
        elif head == "complex":
            if len(words) != 2:
                raise ScenarioParseError(f"bad section [{section}]")
            kind = items.pop("kind", None)
            if kind is None:
                raise ScenarioParseError(f"complex {words[1]!r} has no kind")
            if kind not in COMPLEX_KINDS:
                raise ScenarioParseError(f"complex {words[1]!r} has unknown kind {kind!r}")
            values = _check_params(f"complex {words[1]!r} ({kind})", COMPLEX_KINDS[kind], items)
            complexes[words[1]] = ComplexSpec(words[1], kind, values)
        elif head == "isometry":
            if len(words) != 2:
                raise ScenarioParseError(f"bad section [{section}]")
            isometries[words[1]] = _check_params(
                f"isometry {words[1]!r}", ISOMETRY_KEYS, items)["map"]
        elif head == "task":
            if len(words) != 2:
                raise ScenarioParseError(f"bad section [{section}]")
            kind = items.pop("kind", None)
            if kind not in TASK_KINDS:
                raise ScenarioParseError(
                    f"task {words[1]!r} has unknown kind {kind!r}")
            values = _check_params(f"task {words[1]!r} ({kind})", TASK_KINDS[kind], items)
            tasks.append(TaskSpec(words[1], kind, items, values))
        else:
            raise ScenarioParseError(f"unknown section [{section}]")

    try:
        constants = GoodnessConstants(**constants_kwargs)
    except PreconditionViolated as exc:
        raise ScenarioParseError(str(exc)) from exc
    scenario = Scenario(name, seed, constants, complexes, isometries, tasks, base_dir)
    _validate_references(scenario)
    return scenario


def _validate_references(scenario: Scenario):
    for task in scenario.tasks:
        cname = task.params.get("complex")
        if cname is not None and cname not in scenario.complexes:
            raise ScenarioParseError(
                f"task {task.name!r} references unknown complex {cname!r}")
        iname = task.params.get("isometry")
        if iname is not None and iname not in scenario.isometries:
            raise ScenarioParseError(
                f"task {task.name!r} references unknown isometry {iname!r}")


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    return parse_scenario_text(text, base_dir=path.parent)
