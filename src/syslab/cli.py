"""Command line entry points: run scenarios, render figures, check complexes."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexes import check_local_6_large, load_complex
from .errors import ScenarioParseError, SyslabError
from .euclid import GoodnessConstants
from .runner import run_scenario, write_report
from .scenario import _parse_value, load_scenario


def _build_parser():
    parser = argparse.ArgumentParser(prog="syslab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and write its report")
    run.add_argument("scenario")
    run.add_argument("--out", default=None, help="report path (default <name>.report.json)")
    run.add_argument("--constants", default=None, help="overrides, e.g. C=200,D=600")
    run.add_argument("--seed", type=int, default=None)

    rend = sub.add_parser("render", help="run only the figure-render tasks")
    rend.add_argument("scenario")
    rend.add_argument("--out", required=True, help="output directory for figures")
    rend.add_argument("--seed", type=int, default=None)

    chk = sub.add_parser("check", help="run the local 6-largeness check on a complex file")
    chk.add_argument("complex_file")
    return parser


def _apply_overrides(scenario, args):
    if getattr(args, "seed", None) is not None:
        scenario.seed = args.seed
    constants = getattr(args, "constants", None)
    if constants:
        values = {"C": scenario.constants.C, "D": scenario.constants.D}
        for chunk in constants.split(","):
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in values:
                raise ScenarioParseError(f"unknown constant {key!r}")
            values[key] = _parse_value("--constants", key, "nonnegative", value)
        scenario.constants = GoodnessConstants(empirical=True, **values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            _apply_overrides(scenario, args)
            out = Path(args.out) if args.out else Path(f"{scenario.name}.report.json")
            report, code = run_scenario(scenario, out.parent)
            write_report(report, out)
            status = "PASS" if code == 0 else "FAIL"
            print(f"{status} {scenario.name}: report written to {out}")
            for task in report["tasks"]:
                mark = "ok " if task["pass"] else "FAIL"
                print(f"  [{mark}] {task['name']} ({task['kind']})")
            return code
        if args.command == "render":
            scenario = load_scenario(args.scenario)
            _apply_overrides(scenario, args)
            scenario.tasks = [t for t in scenario.tasks if t.kind == "figure-render"]
            out_dir = Path(args.out)
            report, code = run_scenario(scenario, out_dir)
            write_report(report, out_dir / f"{scenario.name}.report.json")
            for task in report["tasks"]:
                print(f"rendered {task['outputs'].get('file')}")
            return code
        if args.command == "check":
            c = load_complex(args.complex_file)
            result = check_local_6_large(c)
            if result.ok:
                print(f"PASS: all {result.vertices_checked} links are 6-large")
                return 0
            print(f"FAIL: link of {result.witness_vertex} contains the induced "
                  f"cycle {result.witness_cycle}")
            return 1
    except (ScenarioParseError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SyslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
