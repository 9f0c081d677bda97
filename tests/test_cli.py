import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_sir_posterior
from warpalign import (
    CircularWarp,
    Curve,
    PLWarp,
    Rotation,
    apply_seed,
    from_srvf,
    l2_dist,
    make_circular,
    normalize_length,
    resample,
    rotate,
    to_srvf,
    unit_normalize,
    warp_action,
)
from warpalign.cli import cli, main
from warpalign.fixtures import (
    bean_curve,
    closed_shape_pair,
    pqrst_landmarks,
    pqrst_pair,
    spiral_pair,
    two_bump_pair,
)
from warpalign.io import (
    DataError,
    load_curve,
    load_landmarks,
    load_warp,
    write_curve,
    write_warp,
)


SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def load_schema(name: str) -> dict:
    schema = json.loads((SCHEMA_DIR / name).read_text())

    def inline(node):
        if isinstance(node, dict):
            ref = node.get("$ref")
            if ref and ref.endswith(".schema.json"):
                return load_schema(ref)
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(x) for x in node]
        return node

    return inline(schema)


def validate_json(path: Path, schema_name: str):
    jsonschema.validate(json.loads(path.read_text()), load_schema(schema_name))


@pytest.fixture()
def bump_files(tmp_path):
    c1, c2 = two_bump_pair(60)
    return (write_curve(c1, tmp_path / "a.csv"),
            write_curve(c2, tmp_path / "b.csv"))


# small runs of every CLI command, for the manifest test
MANIFEST_RUN_ARGS = {
    "sample-warps": ["--count", "2"],
    "degeneracy": ["--ns", "5", "--samples", "3"],
    "distance": ["--points", "60"],
    "geodesic": ["--steps", "2", "--points", "60"],
    "align-dp": ["--points", "60", "--grid-size", "30"],
    "align-sa": ["--points", "60", "--iters", "50"],
    "align-bayes": ["--points", "60", "--draws", "200", "--resample", "50"],
}


def read_all(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestIo:
    def test_curve_roundtrip(self, tmp_path):
        c1, _ = two_bump_pair(40)
        path = write_curve(c1, tmp_path / "c.csv")
        back = load_curve(path)
        assert np.array_equal(back.grid, c1.grid)
        assert np.array_equal(back.points, c1.points)
        assert back.topology == "open"

    def test_closed_curve_roundtrip(self, tmp_path):
        c = bean_curve(41)
        back = load_curve(write_curve(c, tmp_path / "c.csv"))
        assert back.topology == "closed"
        assert np.array_equal(back.points, c.points)

    def test_three_row_curve(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,x\n0,1.5\n0.5,2.5\n1,0.5\n")
        c = load_curve(path)
        assert c.grid.size == 3 and c.dim == 1

    def test_nonmonotone_t_names_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,x\n0,1\n0.6,2\n0.4,3\n1,4\n")
        with pytest.raises(DataError, match="line 4"):
            load_curve(path)

    def test_closed_header_with_open_endpoints(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# closed\nt,x,y\n0,0,0\n0.5,1,0\n1,0.5,0.5\n")
        with pytest.raises(DataError, match="closed"):
            load_curve(path)

    def test_warp_json_roundtrip_exact(self, tmp_path):
        w = PLWarp([0.0, 1 / 3, 1.0], [0.0, 0.1234567890123456, 1.0])
        back = load_warp(write_warp(w, tmp_path / "w.json"))
        assert np.array_equal(back.x, w.x) and np.array_equal(back.y, w.y)

    def test_circular_warp_roundtrip(self, tmp_path):
        cw = make_circular(PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]), 0.31)
        back = load_warp(write_warp(cw, tmp_path / "w.json"))
        assert isinstance(back, CircularWarp)
        assert back.seed == cw.seed and back.wrap_point == cw.wrap_point

    @pytest.mark.parametrize("circular", [False, True])
    def test_warp_with_overflowing_slope_is_data_error(self, tmp_path, circular):
        data = {"knots": [[0.0, 0.0], [5e-324, 0.5], [1.0, 1.0]]}
        if circular:
            data |= {"seed": 0.5, "wrap_point": 0.5}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match="slope is not finite"):
            load_warp(path)

    def test_circular_warp_with_contradicting_wrap_point_is_data_error(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"knots": [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]],
                                    "seed": 0.5, "wrap_point": 0.5}))
        with pytest.raises(DataError, match="which give 0.6666666666666666"):
            load_warp(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '{"knots": 5}', '{"knots": null}'])
    def test_warp_json_of_the_wrong_shape_is_data_error(self, tmp_path, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        with pytest.raises(DataError, match=str(path)):
            load_warp(path)

    def test_warp_with_spacing_below_min_increment_loads(self, tmp_path):
        # sampled knot positions are sorted uniforms with no floor on their
        # spacing; a tiny spacing with a finite slope is a valid warp
        w = PLWarp([0.0, 1e-12, 1.0], [0.0, 0.5, 1.0])
        back = load_warp(write_warp(w, tmp_path / "w.json"))
        assert np.array_equal(back.x, w.x) and np.array_equal(back.y, w.y)

    def test_landmark_csv(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("a,b\n0.38,0.44\n0.68,0.75\n")
        lm = load_landmarks(path)
        assert np.array_equal(lm.a, [0.38, 0.68])
        assert np.array_equal(lm.b, [0.44, 0.75])

    def test_landmark_csv_with_three_columns(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
        with pytest.raises(DataError, match="line 1: expected 2 columns, got 3"):
            load_landmarks(path)

    def test_srvf_export(self, tmp_path):
        from warpalign import to_srvf
        from conftest import write_srvf

        c1, _ = two_bump_pair(30)
        path = write_srvf(to_srvf(c1), tmp_path / "q.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,q1"
        assert len(lines) == 31


class TestCsvReader:
    """The one CSV grammar that curve and landmark files share."""

    @pytest.mark.parametrize("text", ["", "t,x\n", "# closed\n# a note\n\n",
                                      "t,x\n0,1\n", "0,1\n"],
                             ids=["empty", "header-only", "comments-only",
                                  "one-row", "one-row-no-header"])
    def test_fewer_than_two_rows(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="need at least two data rows"):
            load_curve(path)

    @pytest.mark.parametrize("text", ["t,x\n0.1,1\n1,2\n", "t,x\n0,1\n0.9,2\n"],
                             ids=["late-start", "early-end"])
    def test_t_must_span_the_unit_interval(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="t column must run from 0 to 1"):
            load_curve(path)

    @pytest.mark.parametrize("text,line", [
        ("t,x\n0,1\n0.6,2\n0.4,3\n0.8,oops\n1,4\n", "line 4: t column"),
        ("t,x\n0,1\n0.6,oops\n0.4,3\n1,4\n", "line 3: non-numeric"),
        ("t,x\n0,1\n0.6,2,3\n0.5,oops\n1,4\n", "line 3: expected 2 columns"),
        ("t,x\n0,1\n\n# note\nnan,2\n0.2\n1,4\n", "line 5: t must be finite"),
    ])
    def test_earlier_of_two_defects_is_reported(self, tmp_path, text, line):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=line):
            load_curve(path)

    def test_landmark_defects_in_file_order(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("a,b\n0.2,0.3,0.4\n0.5,x\n")
        with pytest.raises(DataError, match="line 2: expected 2 columns, got 3"):
            load_landmarks(path)

    def test_first_row_with_a_number_is_data_not_header(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("0.38,0.4x\n0.68,0.75\n")
        with pytest.raises(DataError, match="line 1: non-numeric value"):
            load_landmarks(path)

    def test_header_sets_the_width(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,x,y\n0,1\n1,2\n")
        with pytest.raises(DataError, match="line 2: expected 3 columns, got 2"):
            load_curve(path)

    @pytest.mark.parametrize("header", ["a,b,note", "a,b,", "landmarks"])
    def test_landmark_header_does_not_set_the_width(self, tmp_path, header):
        path = tmp_path / "lm.csv"
        path.write_text(f"{header}\n0.3,0.4\n0.6,0.7\n")
        assert load_landmarks(path).pairs.tolist() == [[0.3, 0.4], [0.6, 0.7]]

    def test_closed_marker_anywhere_in_comments(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# a note\nt,x,y\n0,0,0\n# Closed\n0.5,1,0\n1,0,0\n")
        assert load_curve(path).topology == "closed"


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["align-sa", "--no-such-flag"]) == 2

    def test_missing_subcommand_usage(self):
        assert main(["not-a-command"]) == 2

    def test_data_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0,1\nfoo,2\n1,3\n")
        good = tmp_path / "good.csv"
        good.write_text("t,x\n0,1\n0.5,2\n1,3\n")
        code = main(["distance", str(bad), str(good)])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command,flag,value", [
        ("align-sa", "--cooling", "inf"), ("align-sa", "--cooling", "nan"),
        ("align-sa", "--t0", "nan"), ("align-sa", "--t0", "inf"),
        ("align-sa", "--kappa", "nan"), ("align-sa", "--theta", "inf"),
        ("align-bayes", "--a0", "nan"), ("align-bayes", "--a0", "inf"),
        ("align-bayes", "--b0", "nan"), ("align-bayes", "--b0", "inf"),
        ("sample-warps", "--theta", "inf"),
    ])
    def test_non_finite_setting_is_2(self, bump_files, tmp_path, capsys, command,
                                     flag, value):
        inputs = [] if command == "sample-warps" else [*map(str, bump_files),
                                                      "--points", "60"]
        code = main([command, *inputs, flag, value, "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "finite" in errors[0]

    @pytest.mark.parametrize("args", [
        ["sample-warps", "--count", "-3"], ["sample-warps", "--count", "0"],
        ["degeneracy", "--samples", "0"], ["degeneracy", "--ns", "0,5"],
        ["degeneracy", "--ns", "0"],
        ["degeneracy", "--ns", ","], ["degeneracy", "--alpha", "-1"],
        ["degeneracy", "--alpha", "0"], ["degeneracy", "--alpha", "nan"],
        ["degeneracy", "--alpha", "inf"], ["sample-warps", "--seed", "-1"],
        ["degeneracy", "--seed", "-1"], ["sample-warps", "--mean", "beta:-1,2"],
        ["sample-warps", "--mean", "beta:0,1"], ["sample-warps", "--mean", "beta:nan,1"],
    ])
    def test_bad_sampling_flag_is_2(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = main([*args, "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        errors = [line for line in err.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and args[1] in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("align-sa", "--seed", "-1"), ("align-bayes", "--seed", "-1"),
        ("distance", "--points", "2"), ("align-dp", "--points", "2"),
        ("align-sa", "--points", "2"), ("geodesic", "--steps", "1"),
    ])
    def test_bad_curve_flag_is_2(self, bump_files, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        code = main([command, *map(str, bump_files), flag, value, "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and flag in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["align-dp", "distance"])
    def test_nan_row_is_3(self, bump_files, tmp_path, capsys, command):
        a, b = bump_files
        lines = Path(a).read_text().splitlines()
        t = lines[10].split(",")[0]
        lines[10] = f"{t},nan"
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main([command, str(bad), str(b), "--points", "60",
                     "--outdir", str(tmp_path / "out")])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["distance", "align-sa", "align-bayes", "align-dp"])
    def test_dimension_mismatch_is_3(self, bump_files, tmp_path, capsys, command):
        t = np.linspace(0.0, 1.0, 60)
        planar = write_curve(Curve(t, np.column_stack((t, t ** 2))), tmp_path / "p.csv")
        code = main([command, str(bump_files[0]), str(planar), "--points", "60",
                     "--outdir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "SRVFs have different dimensions" in err

    @pytest.mark.parametrize("command", ["distance", "align-sa", "align-bayes", "align-dp"])
    def test_zero_length_curve_is_3(self, bump_files, tmp_path, capsys, command):
        flat = tmp_path / "flat.csv"
        flat.write_text("t,x\n" + "".join(f"{k / 49!r},2.5\n" for k in range(50)))
        code = main([command, str(flat), str(bump_files[1]), "--points", "60",
                     "--outdir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: {flat}: degenerate (zero-length) curve"]

    @pytest.mark.parametrize("command", ["distance", "align-sa", "align-bayes", "align-dp"])
    def test_curve_flattened_by_resampling_is_3(self, tmp_path, capsys, command):
        """A spike that falls between the --points grid resamples to a
        constant curve, which must not be aligned as a zero SRVF."""
        spike = tmp_path / "spike.csv"
        spike.write_text("t,x\n" + "".join(f"{k / 999!r},{float(k == 5)!r}\n"
                                           for k in range(1000)))
        code = main([command, str(spike), str(spike), "--outdir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: {spike}: degenerate (zero-length) curve "
                       "after resampling to --points 100"]


class TestStartup:
    def test_import_leaves_heavy_scipy_submodules_unloaded(self):
        """Importing the package and its CLI loads no scipy.stats,
        scipy.special or scipy.integrate: they take most of a cold start,
        and only ``log_density`` and ``beta_cdf_warp`` need them.  Nor
        does it load ``concurrent.futures``, which only a multi-threaded
        SIR weighting pass needs."""
        code = "import sys, warpalign, warpalign.cli; print(*sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        heavy = ("scipy.stats", "scipy.special", "scipy.integrate", "concurrent.futures")
        loaded = [m for m in out.stdout.split()
                  if m in heavy or m.startswith(tuple(h + "." for h in heavy))]
        assert "warpalign.cli" in out.stdout.split()
        assert loaded == []


# each command with settings that keep a run short, were a bad file to load
FUZZ_COMMANDS = {
    "distance": [],
    "geodesic": ["--steps", "2"],
    "align-dp": ["--grid-size", "10"],
    "align-sa": ["--iters", "5"],
    "align-bayes": ["--draws", "20", "--resample", "5"],
}
DEFECTS = ["non_finite", "ragged", "duplicate_t", "not_closed", "zero_length"]


@st.composite
def malformed_csvs(draw):
    """Curve CSV text with one defect that must make loading fail."""
    rows = draw(st.integers(4, 20))
    dim = draw(st.integers(1, 2))
    defect = draw(st.sampled_from(DEFECTS))
    t = np.linspace(0.0, 1.0, rows)
    pts = np.array(draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim),
                                 min_size=rows, max_size=rows)))
    pts[:, 0] += 20.0 * t  # nonzero length
    cells = [[repr(float(v)) for v in (tk, *p)] for tk, p in zip(t, pts)]
    header = []
    if defect == "non_finite":
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, dim))
        cells[r][c] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif defect == "ragged":
        r = draw(st.integers(0, rows - 1))
        cells[r] = cells[r][:-1] if draw(st.booleans()) else cells[r] + ["0.5"]
    elif defect == "duplicate_t":
        r = draw(st.integers(1, rows - 1))
        cells[r][0] = cells[r - 1][0]
    elif defect == "not_closed":
        header = ["# closed"]
        gap = draw(st.floats(1e-6, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
        cells[-1][1:] = cells[0][1:]
        c = draw(st.integers(1, dim))
        cells[-1][c] = repr(float(pts[0][c - 1]) + gap)
    else:
        value = repr(draw(st.floats(-5.0, 5.0)))
        cells = [[c[0]] + [value] * dim for c in cells]
    names = ["t"] + [f"x{j + 1}" for j in range(dim)]
    return "\n".join(header + [",".join(names)] + [",".join(c) for c in cells]) + "\n"


class TestMalformedCsvFuzz:
    @settings(max_examples=80, deadline=None)
    @given(malformed_csvs(), st.sampled_from(sorted(FUZZ_COMMANDS)), st.booleans())
    def test_malformed_curve_exits_with_one_line(self, text, command, bad_first):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            bad = tmp / "bad.csv"
            bad.write_text(text)
            c1, c2 = two_bump_pair(20)
            good = write_curve(c1 if bad_first else c2, tmp / "good.csv")
            pair = [bad, good] if bad_first else [good, bad]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, *map(str, pair), "--points", "20",
                             *FUZZ_COMMANDS[command], "--outdir", str(tmp / "out")])
        lines = err.getvalue().splitlines()
        assert code in (2, 3), err.getvalue()
        if code == 3:
            assert len(lines) == 1 and lines[0].startswith(f"data error: {bad}: ")
        else:
            assert len([line for line in lines if line.startswith("Error:")]) == 1
        assert "Traceback" not in err.getvalue()


LANDMARK_COMMANDS = {
    "align-sa": ["--iters", "5"],
    "align-bayes": ["--draws", "20", "--resample", "5"],
}
LANDMARK_DEFECTS = ["non_numeric", "ragged", "non_finite", "out_of_range",
                    "not_increasing"]


@st.composite
def malformed_landmark_csvs(draw):
    """Landmark CSV text with one defect that must make loading fail."""
    defect = draw(st.sampled_from(LANDMARK_DEFECTS))
    rows = draw(st.integers(2 if defect == "not_increasing" else 1, 4))
    columns = [sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=rows,
                                    max_size=rows, unique=True))) for _ in range(2)]
    cells = [[repr(a), repr(b)] for a, b in zip(*columns)]
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, 1))
    if defect == "non_numeric":
        cells[r][c] = draw(st.sampled_from(["x", "", "0.5.1", "1e", "--0.3"]))
    elif defect == "ragged":
        cells[r] = cells[r][:1] if draw(st.booleans()) else cells[r] + ["0.5"]
    elif defect == "non_finite":
        cells[r][c] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif defect == "out_of_range":
        cells[r][c] = repr(draw(st.one_of(st.floats(-2.0, 0.0), st.floats(1.0, 3.0))))
    else:
        r = max(r, 1)
        cells[r][c] = repr(draw(st.floats(0.01, float(cells[r - 1][c]))))
    header = ["a,b"] if draw(st.booleans()) else []
    return "\n".join(header + [",".join(row) for row in cells]) + "\n"


class TestMalformedLandmarkFuzz:
    @settings(max_examples=60, deadline=None)
    @given(malformed_landmark_csvs(), st.sampled_from(sorted(LANDMARK_COMMANDS)))
    def test_malformed_landmarks_exit_3_with_one_line(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            lm = tmp / "lm.csv"
            lm.write_text(text)
            c1, c2 = two_bump_pair(20)
            pair = [write_curve(c1, tmp / "a.csv"), write_curve(c2, tmp / "b.csv")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, *map(str, pair), "--points", "20",
                             *LANDMARK_COMMANDS[command], "--landmarks", str(lm),
                             "--outdir", str(tmp / "out")])
        lines = err.getvalue().splitlines()
        assert code == 3, err.getvalue()
        assert len(lines) == 1 and lines[0].startswith(f"data error: {lm}: ")

    @pytest.mark.parametrize("command", sorted(LANDMARK_COMMANDS))
    @pytest.mark.parametrize("row", ["nan,0.5", "0.5,nan"])
    def test_nan_landmark_names_the_file(self, bump_files, tmp_path, capsys, command, row):
        lm = tmp_path / "lm.csv"
        lm.write_text(f"a,b\n0.2,0.25\n{row}\n")
        code = main([command, *map(str, bump_files), "--points", "60",
                     *LANDMARK_COMMANDS[command], "--landmarks", str(lm),
                     "--outdir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {lm}: landmark positions must lie strictly inside (0,1)"]


class TestDistance:
    def test_identical_files_print_zero(self, bump_files, capsys):
        a, _ = bump_files
        assert main(["distance", str(a), str(a)]) == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_shape_flag(self, tmp_path, capsys):
        a, b = closed_shape_pair(61)
        pa = write_curve(a, tmp_path / "a.csv")
        pb = write_curve(b, tmp_path / "b.csv")
        assert main(["distance", str(pa), str(pb), "--shape", "--points", "61"]) == 0
        val = float(capsys.readouterr().out.strip())
        assert 0.0 < val <= np.pi / 2 + 1e-9

    def test_warp_scores_the_align_sa_energy(self, bump_files, tmp_path, capsys):
        a, b = map(str, bump_files)
        out = tmp_path / "sa"
        assert main(["align-sa", a, b, "--points", "60", "--iters", "200",
                     "--seed", "2", "--outdir", str(out)]) == 0
        energy = json.loads((out / "result.json").read_text())["final_energy"]
        capsys.readouterr()
        assert main(["distance", a, b, "--points", "60",
                     "--warp", str(out / "warp.json")]) == 0
        d = float(capsys.readouterr().out.strip())
        assert abs(d ** 2 - energy) <= 1e-12

    def test_warp_with_shape_is_2(self, bump_files, tmp_path, capsys):
        path = write_warp(PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]), tmp_path / "w.json")
        out = tmp_path / "out"
        code = main(["distance", *map(str, bump_files), "--shape", "--warp", str(path),
                     "--outdir", str(out)])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1 and "--warp" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("data,message", [
        # a valid circle warp (its wrap_point agrees with its knots and seed)
        ({"knots": [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]], "seed": 0.5,
          "wrap_point": 0.6666666666666666}, "not of the circle"),
        ({"knots": [[0.0, 0.0], [5e-324, 0.5], [1.0, 1.0]]}, "slope is not finite"),
    ], ids=["circular", "overflowing-slope"])
    def test_bad_warp_file_is_3(self, bump_files, tmp_path, capsys, data, message):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        assert main(["distance", *map(str, bump_files), "--warp", str(path)]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith(f"data error: {path}: ") and message in lines[0]


class TestSampleWarps:
    def test_deterministic_bytes(self, tmp_path, capsys):
        for sub in ("r1", "r2"):
            code = main(["sample-warps", "--n", "20", "--theta", "10",
                         "--count", "50", "--seed", "7",
                         "--outdir", str(tmp_path / sub)])
            assert code == 0
        assert read_all(tmp_path / "r1") == read_all(tmp_path / "r2")

    def test_jsonl_parses_to_warps(self, tmp_path):
        main(["sample-warps", "--count", "5", "--seed", "1",
              "--outdir", str(tmp_path)])
        lines = (tmp_path / "warps.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            w = PLWarp.from_dict(json.loads(line))
            assert np.all(np.diff(w.y) > 0)

    def test_circular_has_seed_fields(self, tmp_path):
        main(["sample-warps", "--count", "3", "--circular", "--seed", "2",
              "--outdir", str(tmp_path)])
        rec = json.loads((tmp_path / "warps.jsonl").read_text().splitlines()[0])
        assert "seed" in rec and "wrap_point" in rec


class TestDegeneracy:
    def test_medians_non_increasing(self, tmp_path, capsys):
        code = main(["degeneracy", "--alpha", "1.2", "--ns", "20,100,300",
                     "--samples", "60", "--seed", "3",
                     "--outdir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "degeneracy.csv").read_text().strip().splitlines()
        assert rows[0] == "n,median_sup_distance"
        meds = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(meds, meds[1:]))


class TestAlignCommands:
    def test_align_dp_outputs(self, bump_files, tmp_path):
        a, b = bump_files
        out = tmp_path / "dp"
        code = main(["align-dp", str(a), str(b), "--points", "60",
                     "--grid-size", "60", "--outdir", str(out)])
        assert code == 0
        assert (out / "warp.json").exists()
        table = (out / "energy.csv").read_text().splitlines()
        assert table[0] == "metric,value"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"warp.json", "energy.csv"}

    def test_align_dp_closed_reports_seed(self, tmp_path):
        a, b = closed_shape_pair(41)
        pa = write_curve(a, tmp_path / "a.csv")
        pb = write_curve(b, tmp_path / "b.csv")
        out = tmp_path / "dp"
        code = main(["align-dp", str(pa), str(pb), "--points", "41",
                     "--grid-size", "41", "--shape", "--outdir", str(out)])
        assert code == 0
        assert "seed" in (out / "energy.csv").read_text()

    def test_align_sa_outputs_and_determinism(self, bump_files, tmp_path):
        a, b = bump_files
        outs = []
        for sub in ("s1", "s2"):
            out = tmp_path / sub
            code = main(["align-sa", str(a), str(b), "--points", "60",
                         "--iters", "200", "--seed", "11", "--outdir", str(out)])
            assert code == 0
            outs.append(read_all(out))
        assert outs[0] == outs[1]
        assert {"result.json", "warp.json", "trace.csv", "aligned.csv",
                "manifest.json"} <= set(outs[0])

    def test_align_sa_frozen_schedule(self, bump_files, tmp_path):
        # cooling**k overflows from iteration 309: the chain freezes at T = 0
        a, b = bump_files
        out = tmp_path / "sa"
        code = main(["align-sa", str(a), str(b), "--points", "60", "--cooling", "10",
                     "--iters", "400", "--seed", "1", "--outdir", str(out)])
        assert code == 0
        assert json.loads((out / "result.json").read_text())["iterations"] == 400

    @pytest.mark.parametrize("mode,pair", [("open_shape", spiral_pair),
                                           ("closed_shape", closed_shape_pair)])
    def test_align_sa_shape_mode_outputs(self, tmp_path, mode, pair):
        paths = [write_curve(c, tmp_path / f"{k}.csv") for k, c in zip("ab", pair(41))]
        out = tmp_path / "sa"
        code = main(["align-sa", *map(str, paths), "--mode", mode, "--points", "41",
                     "--iters", "150", "--seed", "3", "--outdir", str(out)])
        assert code == 0
        validate_json(out / "result.json", "result.schema.json")
        result = json.loads((out / "result.json").read_text())
        rot = Rotation(np.array(result["rotation"]))
        assert np.allclose(rot.matrix @ rot.matrix.T, np.eye(rot.matrix.shape[0]),
                           rtol=0.0, atol=1e-12)
        assert abs(np.linalg.det(rot.matrix) - 1.0) < 1e-12
        assert ("seed_point" in result) == (mode == "closed_shape")
        # rebuild the aligned SRVF from the written warp, rotation and seed,
        # on the shapes the command aligned
        q1, q2 = (unit_normalize(to_srvf(normalize_length(resample(load_curve(p), 41))))
                  for p in paths)
        if mode == "closed_shape":
            q2 = apply_seed(q2, result["seed_point"])
        aligned = rotate(warp_action(q2, load_warp(out / "warp.json")), rot)
        assert result["final_energy"] == pytest.approx(l2_dist(q1, aligned) ** 2,
                                                       rel=1e-12, abs=0.0)
        assert np.array_equal(load_curve(out / "aligned.csv").points,
                              from_srvf(aligned).points)

    def test_align_sa_landmarks(self, tmp_path):
        c1, c2 = pqrst_pair(100)
        pa = write_curve(c1, tmp_path / "a.csv")
        pb = write_curve(c2, tmp_path / "b.csv")
        lm_path = tmp_path / "lm.csv"
        lm = pqrst_landmarks()
        lm_path.write_text("a,b\n" + "\n".join(f"{a},{b}" for a, b in lm.pairs) + "\n")
        out = tmp_path / "sa"
        code = main(["align-sa", str(pa), str(pb), "--iters", "150",
                     "--landmarks", str(lm_path), "--seed", "4",
                     "--outdir", str(out)])
        assert code == 0
        warp = load_warp(out / "warp.json")
        for a, b in lm.pairs:
            assert abs(warp(a) - b) < 1e-12
        validate_json(out / "result.json", "result.schema.json")

    def test_align_sa_landmarks_need_function_mode(self, bump_files, tmp_path):
        a, b = bump_files
        lm = tmp_path / "lm.csv"
        lm.write_text("a,b\n0.5,0.5\n")
        code = main(["align-sa", str(a), str(b), "--mode", "open_shape",
                     "--landmarks", str(lm), "--outdir", str(tmp_path / "x")])
        assert code == 2

    def test_align_bayes_outputs(self, bump_files, tmp_path):
        a, b = bump_files
        out = tmp_path / "bayes"
        code = main(["align-bayes", str(a), str(b), "--points", "60",
                     "--draws", "500", "--resample", "100", "--seed", "5",
                     "--outdir", str(out)])
        assert code == 0
        band = (out / "band.csv").read_text().splitlines()
        assert band[0] == "t,lower,mean,upper,width"
        assert (out / "mean_warp.json").exists()
        assert (out / "aligned.csv").exists()

    def test_align_bayes_warns_on_collapsed_weights(self, tmp_path, capsys, monkeypatch):
        c1, c2 = two_bump_pair()
        a = write_curve(c1, tmp_path / "a.csv")
        b = write_curve(c2, tmp_path / "b.csv")
        args = ["align-bayes", str(a), str(b), "--seed", "0", "--outdir"]
        assert main(args + [str(tmp_path / "new")]) == 0
        err = capsys.readouterr().err
        assert "warning: effective sample size 1 is below 1% of the 20000" in err
        # the output files are those of SIR as first written, byte for byte
        monkeypatch.setattr("warpalign.cli.sir_posterior", reference_sir_posterior)
        assert main(args + [str(tmp_path / "ref")]) == 0
        assert read_all(tmp_path / "new") == read_all(tmp_path / "ref")

    def test_align_bayes_quiet_with_flat_likelihood(self, bump_files, tmp_path, capsys):
        a, b = bump_files
        code = main(["align-bayes", str(a), str(b), "--points", "60", "--b0", "1e6",
                     "--draws", "500", "--resample", "100", "--outdir", str(tmp_path)])
        assert code == 0
        assert "warning" not in capsys.readouterr().err

    def test_geodesic_steps(self, bump_files, tmp_path):
        a, b = bump_files
        out = tmp_path / "geo"
        code = main(["geodesic", str(a), str(b), "--steps", "4",
                     "--points", "60", "--outdir", str(out)])
        assert code == 0
        steps = sorted(p.name for p in out.glob("geodesic_*.csv"))
        assert len(steps) == 4
        ends = load_curve(out / "geodesic_000.csv")
        assert ends.grid.size == 60

    def test_align_bayes_landmarks(self, tmp_path):
        c1, c2 = pqrst_pair(100)
        pa = write_curve(c1, tmp_path / "a.csv")
        pb = write_curve(c2, tmp_path / "b.csv")
        lm = pqrst_landmarks()
        lm_path = tmp_path / "lm.csv"
        lm_path.write_text("a,b\n" + "\n".join(f"{a},{b}" for a, b in lm.pairs) + "\n")
        out = tmp_path / "bayes"
        code = main(["align-bayes", str(pa), str(pb), "--draws", "2000",
                     "--resample", "300", "--b0", "5.0", "--seed", "6",
                     "--landmarks", str(lm_path), "--outdir", str(out)])
        assert code == 0
        warp = load_warp(out / "mean_warp.json")
        for a, b in lm.pairs:
            assert abs(warp(a) - b) < 1e-9
        rows = (out / "band.csv").read_text().strip().splitlines()[1:]
        widths = {float(r.split(",")[0]): float(r.split(",")[4]) for r in rows}
        for a in lm.a:
            assert widths[a] < 1e-6


class TestSchemasAndManifests:
    def test_emitted_json_validates(self, bump_files, tmp_path):
        a, b = bump_files
        out = tmp_path / "sa"
        main(["align-sa", str(a), str(b), "--points", "60", "--iters", "100",
              "--seed", "1", "--outdir", str(out)])
        validate_json(out / "warp.json", "warp.schema.json")
        validate_json(out / "result.json", "result.schema.json")
        validate_json(out / "manifest.json", "manifest.schema.json")

    def test_circular_warp_validates(self, tmp_path):
        main(["sample-warps", "--count", "2", "--circular", "--seed", "3",
              "--outdir", str(tmp_path)])
        for line in (tmp_path / "warps.jsonl").read_text().strip().splitlines():
            jsonschema.validate(json.loads(line), load_schema("warp.schema.json"))

    @pytest.mark.parametrize("command", sorted(cli.commands))
    def test_manifest_records_every_parameter(self, bump_files, tmp_path, command):
        """The manifest's config holds each argument and flag of the
        command but --outdir, so a run records which curves it read."""
        args = MANIFEST_RUN_ARGS[command]
        params = {p.name for p in cli.commands[command].params} - {"outdir"}
        curves = [str(p) for p in bump_files] if "curve1" in params else []
        out = tmp_path / "out"
        assert main([command, *curves, *args, "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        config = manifest["config"]
        assert set(config) == params
        if curves:
            assert [config["curve1"], config["curve2"]] == curves

    def test_manifest_checksums_match_files(self, bump_files, tmp_path):
        a, b = bump_files
        out = tmp_path / "dp"
        main(["align-dp", str(a), str(b), "--points", "60", "--grid-size", "60",
              "--outdir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
