"""Smoke tests of the command-line scripts under scripts/, each run in a
subprocess with small arguments, so a library change that breaks a script
fails here."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=120)


def test_run_scenarios_writes_every_report(tmp_path):
    proc = _run("run_scenarios.py", "--out", tmp_path / "reports", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.stem for p in (ROOT / "scenarios").glob("*.scn"))
    assert sorted(line.split()[1] for line in proc.stdout.splitlines()) == names
    for line in proc.stdout.splitlines():
        assert line.startswith("[PASS] ")
    reports = sorted((tmp_path / "reports").glob("*.report.json"))
    assert len(reports) == len(names)
    assert all(json.loads(p.read_text())["pass"] for p in reports)
    assert (tmp_path / "reports" / "pipeline-42.svg").exists()


def test_render_figure_writes_the_pipeline_figure(tmp_path):
    out = tmp_path / "fig.svg"
    proc = _run("render_figure.py", "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    svg = out.read_bytes()
    assert b"<svg" in svg[:200]
    assert proc.stdout.strip() == f"wrote {out} ({len(svg.decode())} bytes)"
    # the same instance as the bundled pipeline-42 figure, on the same window
    assert hashlib.sha256(svg).hexdigest().startswith("6b809efb")


def test_goodness_slack_prints_one_row_per_difference_class(tmp_path):
    proc = _run("goodness_slack.py", "--max-distance", 3, "--radius", 6, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "p,q,distance,selected_cstar,corner_cstar,contracting_slack"
    assert rows and all(2 <= int(row.split(",")[2]) <= 3 for row in rows)
    assert "# guaranteed constant C = 200, D = 600" in proc.stderr
