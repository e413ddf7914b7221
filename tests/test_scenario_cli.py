import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from syslab import cli, eplane, runner
from syslab.errors import ScenarioParseError
from syslab.isodyn import min_set
from syslab.runner import run_scenario, write_report
from syslab.scenario import load_scenario, parse_scenario_text

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _strip_timing(report):
    out = json.loads(json.dumps(report))
    for task in out["tasks"]:
        task.pop("wall_clock_s", None)
    return out


def test_parse_bundled_scenarios():
    for path in sorted(SCENARIOS.glob("*.scn")):
        scenario = load_scenario(path)
        assert scenario.tasks, path


def test_parse_rejects_unknown_kind():
    with pytest.raises(ScenarioParseError):
        parse_scenario_text("[task t]\nkind = explode\n")


def test_parse_rejects_dangling_reference():
    text = "[task t]\nkind = goodness-sweep\ncomplex = nowhere\n"
    with pytest.raises(ScenarioParseError):
        parse_scenario_text(text)


def test_parse_rejects_low_constants_without_flag():
    with pytest.raises(ScenarioParseError):
        parse_scenario_text("[constants]\nC = 10\n")
    scenario = parse_scenario_text("[constants]\nC = 10\nempirical = yes\n")
    assert scenario.constants.C == 10


def test_readme_scenario_example_parses():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    scenario = parse_scenario_text(example)
    assert scenario.name == "glide-minset"
    assert [task.kind for task in scenario.tasks] == ["displacement-study"]


def test_run_pipeline_scenario(tmp_path):
    scenario = load_scenario(SCENARIOS / "pipeline-42.scn")
    report, code = run_scenario(scenario, tmp_path)
    assert code == 0
    assert report["pass"]
    pipeline = report["tasks"][0]
    assert pipeline["outputs"]["thickness_profile"] == [0, 1, 1, 2, 1, 1, 0]
    assert pipeline["outputs"]["goodness"] == 1
    figure = report["tasks"][1]
    assert (tmp_path / figure["outputs"]["file"]).exists()


def test_reports_deterministic(tmp_path):
    scenario = load_scenario(SCENARIOS / "goodness.scn")
    r1, _ = run_scenario(scenario, tmp_path / "a")
    scenario2 = load_scenario(SCENARIOS / "goodness.scn")
    r2, _ = run_scenario(scenario2, tmp_path / "b")
    assert _strip_timing(r1) == _strip_timing(r2)


def test_assertions_carry_constants(tmp_path):
    scenario = load_scenario(SCENARIOS / "glide-minset.scn")
    report, code = run_scenario(scenario, tmp_path)
    assert code == 0
    task = report["tasks"][0]
    prox = next(a for a in task["assertions"] if a["name"] == "min-proximity")
    assert prox["constant"] == "9L+6"
    assert prox["bound"] == 24
    assert prox["measured"] <= 24


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(["run", str(SCENARIOS / "pipeline-42.scn"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "report/1"

    assert cli.main(["run", str(tmp_path / "missing.scn")]) == 2

    bad = tmp_path / "bad.scn"
    bad.write_text("[task t]\nkind = explode\n")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_constants_override_fails_goodness(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["run", str(SCENARIOS / "goodness.scn"),
                     "--out", str(out), "--constants", "C=1"])
    assert code == 1
    report = json.loads(out.read_text())
    corner = next(a for t in report["tasks"] for a in t["assertions"]
                  if a["name"] == "corner-goodness")
    assert not corner["pass"]
    assert corner["witness"] is not None  # the violating pair


def test_cli_check(tmp_path):
    good = tmp_path / "tri.fc"
    good.write_text("flagcomplex v1\n0 1\n1 2\n2 0\n")
    assert cli.main(["check", str(good)]) == 0

    octa = tmp_path / "octa.fc"
    lines = ["flagcomplex v1"]
    opposite = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    for u in range(6):
        for v in range(u + 1, 6):
            if opposite[u] != v:
                lines.append(f"{u} {v}")
    octa.write_text("\n".join(lines) + "\n")
    assert cli.main(["check", str(octa)]) == 1

    assert cli.main(["check", str(tmp_path / "none.fc")]) == 2


def test_cli_render(tmp_path):
    code = cli.main(["render", str(SCENARIOS / "pipeline-42.scn"),
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "pipeline-42.svg").exists()


def test_cli_missing_task_parameter_exits_2(tmp_path, capsys):
    scn = tmp_path / "no-to.scn"
    scn.write_text("[complex main]\nkind = eplane\n\n"
                   "[task p]\nkind = geodesic-pipeline\ncomplex = main\nfrom = 0 0\n")
    out = tmp_path / "r.json"
    assert cli.main(["run", str(scn), "--out", str(out)]) == 2
    assert "lacks to" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task, message", [
    ("kind = goodness-sweep\ncomplex = main\npairs = twelve\n",
     "expected an integer, got 'twelve'"),
    ("kind = geodesic-pipeline\ncomplex = main\nfrom = 0\nto = 4 2\n",
     "expected two integers, got '0'"),
    ("kind = geodesic-pipeline\ncomplex = main\nfrom = 0 0\nto = 4 x\n",
     "expected an integer, got 'x'"),
    ("kind = goodness-sweep\ncomplex = main\npair = 3\n", "unknown key 'pair'"),
    ("kind = contracting-suite\ncomplex = main\ncs = 1/2 abc\n",
     "key 'cs': expected fractions such as 1/4, got '1/2 abc'"),
    ("kind = contracting-suite\ncomplex = main\ncs = 1/0\n",
     "key 'cs': expected fractions such as 1/4, got '1/0'"),
    ("kind = contracting-suite\ncomplex = main\ncs =\n",
     "key 'cs': expected one or more fractions"),
    ("kind = goodness-sweep\ncomplex = main\nstaircase_map = nonsense\n",
     "key 'staircase_map': bad isometry literal 'nonsense'"),
    ("kind = contracting-suite\ncomplex = main\ncs = 1/2 2\n",
     "key 'cs': expected fractions in [0, 1], got '2'"),
    ("kind = contracting-suite\ncomplex = main\ncs = -1/4\n",
     "key 'cs': expected fractions in [0, 1], got '-1/4'"),
    ("kind = goodness-sweep\ncomplex = main\nstaircase_map = glide(1,1)\n",
     "key 'staircase_map': expected a nonzero translation, got 'glide(1,1)'"),
    ("kind = goodness-sweep\ncomplex = main\nstaircase_map = translate(0, 0)\n",
     "key 'staircase_map': expected a nonzero translation, got 'translate(0, 0)'"),
    ("kind = contracting-suite\ncomplex = main\npairs = -3\n",
     "key 'pairs': expected a count of at least 1, got '-3'"),
    ("kind = displacement-study\ncomplex = main\nisometry = g\npairs = 0\n"
     "\n[isometry g]\nmap = translate(1, 0)\n",
     "key 'pairs': expected a count of at least 1, got '0'"),
    ("kind = extendability-study\ncontrol_pairs = 0\n",
     "key 'control_pairs': expected a count of at least 1, got '0'"),
    ("kind = goodness-sweep\ncomplex = main\nambient = book-9\n",
     "task 't' (goodness-sweep) key 'ambient': unknown sample complex 'book-9'"),
    ("kind = extendability-study\ndepth = 1\n",
     "task 't' (extendability-study) key 'depth': expected an integer of at least 2, got '1'"),
    ("kind = figure-render\ncomplex = main\nfrom = 0 0\nto = 4 2\nout = ../x.svg\n",
     "key 'out': expected a relative path with no '..' part, got '../x.svg'"),
    ("kind = figure-render\ncomplex = main\nfrom = 0 0\nto = 4 2\nout = /tmp/x.svg\n",
     "key 'out': expected a relative path with no '..' part, got '/tmp/x.svg'"),
], ids=["non-integer", "one-number-vertex", "non-integer-vertex", "misspelt-key",
        "non-fraction", "zero-denominator", "no-fractions", "bad-isometry",
        "fraction-above-1", "fraction-below-0", "glide-staircase", "zero-translation",
        "negative-pairs", "zero-pairs", "zero-control-pairs", "unknown-ambient", "study-depth-1",
        "render-out-parent", "render-out-absolute"])
def test_cli_malformed_task_value_exits_2(tmp_path, capsys, task, message):
    scn = tmp_path / "bad.scn"
    scn.write_text("[complex main]\nkind = eplane\n\n[task t]\n" + task)
    out = tmp_path / "r.json"
    assert cli.main(["run", str(scn), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out_value", ["../escaped.svg", "{abs}"])
def test_render_out_stays_inside_the_report_directory(tmp_path, out_value):
    reports = tmp_path / "reports"
    escaped = tmp_path / "escaped.svg"
    scn = tmp_path / "fig.scn"
    scn.write_text("[complex main]\nkind = eplane\n\n[task f]\nkind = figure-render\n"
                   "complex = main\nfrom = 0 0\nto = 4 2\n"
                   f"out = {out_value.format(abs=escaped)}\n")
    assert cli.main(["run", str(scn), "--out", str(reports / "r.json")]) == 2
    assert cli.main(["render", str(scn), "--out", str(reports)]) == 2
    assert not escaped.exists() and not reports.exists()


def test_plane_map_on_a_book_is_a_task_failure(tmp_path):
    scn = tmp_path / "glide-book.scn"
    scn.write_text("[complex main]\nkind = sample\nname = book-4\n\n"
                   "[isometry g]\nmap = glide(1,1)\n\n"
                   "[task d]\nkind = displacement-study\ncomplex = main\nisometry = g\n")
    out = tmp_path / "r.json"
    assert cli.main(["run", str(scn), "--out", str(out)]) == 1
    task = json.loads(out.read_text())["tasks"][0]
    assert task["error"].startswith("NotPlaneBacked: plane isometry")
    assert task["assertions"] == []


@pytest.mark.parametrize("radius, origin, why", [
    (2, "2 0", "after 2000 attempts"),
    (4, "40 0", "(origin not in the window)"),
    (4, "5 0", "(origin not in the window)"),
], ids=["rim-origin", "origin-outside", "origin-next-to-window"])
def test_contracting_suite_without_rays_is_a_task_failure(tmp_path, radius, origin, why):
    text = (f"[complex main]\nkind = eplane\nradius = {radius}\n\n"
            f"[task c]\nkind = contracting-suite\ncomplex = main\norigin = {origin}\n")
    report, code = run_scenario(parse_scenario_text(text), tmp_path)
    assert code == 1
    a, b = origin.split()
    assert report["tasks"][0]["error"] == (
        f"TaskFailed: no margin-safe ray from origin ({a}, {b}) {why}")


PIPELINE_TASK = "[task p]\nkind = geodesic-pipeline\ncomplex = main\nfrom = 0 0\nto = 4 2\n"


@pytest.mark.parametrize("head, message", [
    ("[scenario]\nseed = abc\n\n[complex main]\nkind = eplane\n",
     "[scenario] key 'seed': expected an integer, got 'abc'"),
    ("[constants]\nC = lots\n\n[complex main]\nkind = eplane\n",
     "[constants] key 'C': expected an integer, got 'lots'"),
    ("[complex main]\nkind = eplane\nradius = big\n",
     "complex 'main' (eplane) key 'radius': expected an integer, got 'big'"),
    ("[complex main]\nkind = eplane\nradus = 5\n",
     "complex 'main' (eplane) has unknown key 'radus'"),
    ("[scenario]\nsede = 5\n\n[complex main]\nkind = eplane\n",
     "[scenario] has unknown key 'sede'"),
    ("[constants]\nCC = 10\n\n[complex main]\nkind = eplane\n",
     "[constants] has unknown key 'CC'"),
    ("[constants]\nC = 10\nempirical = maybe\n\n[complex main]\nkind = eplane\n",
     "[constants] key 'empirical': expected one of true/false/yes/no/1/0, got 'maybe'"),
    ("[constants extra]\n\n[complex main]\nkind = eplane\n",
     "bad section [constants extra]"),
    ("[ ]\n\n[complex main]\nkind = eplane\n", "unknown section [ ]"),
    ("[complex main]\nkind = sample\nname = nonsense\n",
     "complex 'main' (sample) key 'name': unknown sample complex 'nonsense'"),
    ("[complex main]\nkind = eplane\n\n[isometry g]\nmap = glide(1,1)\nshift = 3 4\n",
     "isometry 'g' has unknown key 'shift'"),
    ("[complex main]\nkind = eplane\n\n[isometry g]\n", "isometry 'g' lacks map"),
    ("[complex main]\nkind = eplane\n\n[isometry g]\nmap = nonsense\n",
     "isometry 'g' key 'map': bad isometry literal 'nonsense'"),
    ("[complex main]\nkind = eplane\nradius = -1\n",
     "complex 'main' (eplane) key 'radius': expected a nonnegative integer, got '-1'"),
    ("[complex main]\nkind = eplane\n\n[complex t]\nkind = tree\ndepth = 1\n",
     "complex 't' (tree) key 'depth': expected an integer of at least 2, got '1'"),
], ids=["scenario-seed", "constant-C", "complex-radius", "complex-misspelt-key",
        "scenario-misspelt-key", "constants-misspelt-key", "constants-empirical",
        "constants-extra-word", "blank-section", "complex-unknown-sample",
        "isometry-unknown-key", "isometry-without-map", "isometry-bad-literal",
        "negative-radius", "tree-depth-1"])
def test_cli_malformed_section_value_exits_2(tmp_path, capsys, head, message):
    scn = tmp_path / "bad.scn"
    scn.write_text(head + "\n" + PIPELINE_TASK)
    out = tmp_path / "r.json"
    assert cli.main(["run", str(scn), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, empirical", [
    ("[constants]\nC = 10\nempirical = yes\n", True),
    ("[constants]\nC = 10\nempirical = TRUE\n", True),
    ("[constants]\nC = 10\nempirical = 1\n", True),
    ("[constants]\nempirical = no\n", False),
    ("[constants]\nempirical = False\n", False),
    ("[constants]\nempirical = 0\n", False),
])
def test_parse_constants_empirical_flag(text, empirical):
    assert parse_scenario_text(text).constants.empirical is empirical


def test_cli_malformed_constants_override_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["run", str(SCENARIOS / "pipeline-42.scn"), "--out", str(out),
                     "--constants", "C=abc"]) == 2
    assert "--constants key 'C': expected an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_unexpected_handler_error_is_reported(tmp_path, monkeypatch):
    def explode(scenario, task, record, rng, out_dir, c):
        raise ValueError("boom")

    monkeypatch.setitem(runner._HANDLERS, "figure-render", explode)
    out = tmp_path / "r.json"
    assert cli.main(["run", str(SCENARIOS / "pipeline-42.scn"), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["tasks"][0]["pass"]
    assert report["tasks"][1]["error"] == "ValueError: boom"
    assert not report["pass"]


def test_corner_geodesics_are_geodesics():
    import random

    import oracles
    from syslab import eplane
    c = eplane.window((0, 0), 10)
    rng = random.Random(17)
    for _ in range(40):
        x = (rng.randint(-4, 4), rng.randint(-4, 4))
        y = (rng.randint(-4, 4), rng.randint(-4, 4))
        if x == y:
            continue
        g = eplane.corner_geodesic(x, y)
        assert g[0] == x and g[-1] == y
        assert len(g) - 1 == eplane.lattice_distance(x, y)
        assert oracles.is_geodesic(c, g)


def test_goodness_sweep_staircase_and_ambient_assertions(tmp_path):
    scenario = load_scenario(SCENARIOS / "goodness.scn")
    report, code = run_scenario(scenario, tmp_path)
    assert code == 0
    names = {a["name"]: a for t in report["tasks"] for a in t["assertions"]}
    assert names["staircase-goodness"]["constant"] == "4K/sqrt3+1"
    assert abs(names["staircase-goodness"]["bound"] - 2.1547005383792515) < 1e-12
    assert names["flat-ambient-goodness"]["constant"] == "C'+10"


def test_write_report_partial_on_failure(tmp_path):
    text = (SCENARIOS / "goodness.scn").read_text() + \
        "\n[task boom]\nkind = geodesic-pipeline\ncomplex = main\n" \
        "from = 0 0\nto = 16 16\n"
    scenario = parse_scenario_text(text, base_dir=SCENARIOS)
    report, code = run_scenario(scenario, tmp_path)
    assert code == 1
    assert report["tasks"][0]["pass"]            # earlier task still recorded
    assert report["tasks"][1]["error"] is not None
    write_report(report, tmp_path / "partial.json")
    assert (tmp_path / "partial.json").exists()


def test_task_values_are_typed_with_defaults_and_params_stay_raw():
    sc = parse_scenario_text(
        "[complex main]\nkind = eplane\n\n"
        "[task c]\nkind = contracting-suite\ncomplex = main\npairs = 7\n\n"
        "[task g]\nkind = goodness-sweep\ncomplex = main\nstaircase_map = translate(1, 1)\n")
    c, g = sc.tasks
    assert c.params == {"complex": "main", "pairs": "7"}
    assert c.values == {"complex": "main", "pairs": 7, "doubling": 20, "max_distance": 12,
                        "cs": [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
                        "origin": (0, 0)}
    assert g.values["staircase_map"] == eplane.translation(1, 1)
    assert (g.values["pairs"], g.values["staircase_origin"]) == (20, (0, 0))
    assert "ambient" not in g.values


def test_complex_values_are_typed_with_defaults():
    scenario = parse_scenario_text("[complex a]\nkind = eplane\ncenter = 1, -2\n\n"
                                   "[complex t]\nkind = tree\n\n"
                                   "[complex s]\nkind = sample\nname = book-3\n")
    assert scenario.complexes["a"].values == {"radius": 8, "center": (1, -2)}
    assert scenario.complexes["t"].values == {"depth": 8}
    assert scenario.complex("s").name == "book-3:r7"


@pytest.mark.parametrize("name", ["contracting", "glide-minset", "goodness"])
def test_sampler_matches_per_call_sort_oracle(name):
    # Same draws, same decisions: 50 successive pairs from the task's own
    # generator, the shared sample space against the per-call sort.
    scenario = load_scenario(SCENARIOS / f"{name}.scn")
    task = scenario.tasks[0]
    c = scenario.complex(task.values["complex"])
    predicate = None
    if task.kind == "displacement-study":
        mset = min_set(scenario.isometry(task.values["isometry"]), c)
        predicate = mset.vertices.__contains__
    max_d = task.values["max_distance"]
    verts = runner._sample_space(c, task.values["complex"])
    seed = (scenario.seed, 0, task.name).__repr__()
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert (runner._sample_safe_pair(c, verts, new, max_d, predicate)
                == oracles.sample_safe_pair(c, old, max_d, predicate))
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("kind", ["goodness-sweep", "contracting-suite"])
def test_empty_sample_space_is_a_task_failure(tmp_path, kind):
    text = (f"[complex dot]\nkind = eplane\nradius = 0\n\n"
            f"[task t]\nkind = {kind}\ncomplex = dot\n")
    report, code = run_scenario(parse_scenario_text(text), tmp_path)
    assert code == 1
    assert report["tasks"][0]["error"] == (
        "TaskFailed: complex 'dot' (eplane:r0@0,0) has 0 vertices of margin >= 1; "
        "sampling needs two")


def test_each_named_complex_is_built_once_per_run(tmp_path, monkeypatch):
    scenario = load_scenario(SCENARIOS / "pipeline-42.scn")
    built = []
    build = type(scenario).complex
    monkeypatch.setattr(type(scenario), "complex",
                        lambda self, name: built.append(name) or build(self, name))
    for _ in range(2):
        report, code = run_scenario(scenario, tmp_path)
        assert code == 0 and len(report["tasks"]) == 2
    # two tasks on "main" share one build; the next run builds its own
    assert built == ["main", "main"]
