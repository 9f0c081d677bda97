import ast
import re
import subprocess
import sys
from pathlib import Path

from warpalign.io import load_curve, load_landmarks

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
# as tier-1 runs itself: a warning inside a script fails its test
PYTHON = [sys.executable, "-X", "dev", "-W", "error"]


def test_make_fixtures_outputs_parse(tmp_path):
    out = subprocess.run(
        [*PYTHON, str(SCRIPTS / "make_fixtures.py"), str(tmp_path)],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    for name in ("two_bump_1", "two_bump_2", "pqrst_1", "spiral_1",
                 "closed_blob_1", "bean"):
        curve = load_curve(tmp_path / f"{name}.csv")
        assert curve.grid.size >= 100
    assert load_curve(tmp_path / "bean.csv").topology == "closed"
    lm = load_landmarks(tmp_path / "pqrst_landmarks.csv")
    assert len(lm) == 2


def test_alignment_demo_script_runs(tmp_path):
    out = subprocess.run(
        [*PYTHON, str(SCRIPTS / "run_alignment_demo.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert [line.split(":")[0] for line in out.stdout.splitlines()[:5]] == [
        "two-bump functions", "two-bump Bayes", "pqrst landmarks", "spirals", "closed blobs"]
    band = (tmp_path / "pqrst_band.csv").read_text().splitlines()
    assert band[0] == "t,lower,mean,upper,width"
    for name in ("two_bump_sa_warp.json", "two_bump_band.csv", "pqrst_warp.json",
                 "spiral_warp.json", "closed_warp.json"):
        assert (tmp_path / name).exists()


def test_sa_iter_timing_script_runs():
    out = subprocess.run(
        [*PYTHON, str(SCRIPTS / "sa_iter_timing.py"), "--iters", "5", "--runs", "1"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["function", "open_shape", "closed_shape",
                                                   "closed_dp", "dp_align", "sir_posterior"]
    assert all(float(line.split()[1]) > 0.0 for line in lines)
    assert all("us/iter" in line for line in lines[:3])
    assert "ms/search" in lines[3] and "100 seeds at grid_size=101" in lines[3]
    assert "ms/call" in lines[4] and "grid_size=100" in lines[4]
    assert "ms/call" in lines[5] and "20000 draws at m=100" in lines[5]


def test_cli_timing_script_runs():
    out = subprocess.run(
        [*PYTHON, str(SCRIPTS / "cli_timing.py"), "--commands", "import,distance",
         "--runs", "1"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    fields = [line.split() for line in lines]
    assert [f[0] for f in fields] == ["import", "distance"]
    assert all(f[2] == "s" and f[4] == "MB" for f in fields)
    assert all(float(f[1]) > 0.0 for f in fields)
    # a fresh interpreter that imports numpy holds more than 10 MB
    assert all(10.0 < float(f[3]) < 2048.0 for f in fields)
    assert all("median of 1 cold runs" in line for line in lines)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    out = subprocess.run([*PYTHON, "-c", example], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "True"


def test_readme_guarantees_name_defined_tests():
    """Each line of README's "Guarantees" ends with the tests, classes or
    fixtures that hold it, in backticks (``Class::method`` for a method),
    and each of them is defined under ``tests/``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Guarantees\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("- ")]
    members = {}  # every function or class under tests/, with its own members
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                members.setdefault(node.name, set()).update(
                    child.name for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)))
    assert lines
    undefined = []
    for line in lines:
        _, dash, holders = line.rpartition(" — ")
        assert dash and re.fullmatch(r"`[\w:]+`(, `[\w:]+`)*\.", holders), line
        for name in re.findall(r"`([\w:]+)`", holders):
            owner, _, member = name.partition("::")
            if owner not in members or member and member not in members[owner]:
                undefined.append(name)
    assert undefined == []
