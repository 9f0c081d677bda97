import hashlib
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from warpalign import CircularWarp, PLWarp, make_circular
from warpalign.cli import main
from warpalign.fixtures import (
    bean_curve,
    closed_shape_pair,
    pqrst_landmarks,
    pqrst_pair,
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

    def test_landmark_csv(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("a,b\n0.38,0.44\n0.68,0.75\n")
        lm = load_landmarks(path)
        assert np.array_equal(lm.a, [0.38, 0.68])
        assert np.array_equal(lm.b, [0.44, 0.75])

    def test_srvf_export(self, tmp_path):
        from warpalign import to_srvf
        from warpalign.io import write_srvf

        c1, _ = two_bump_pair(30)
        path = write_srvf(to_srvf(c1), tmp_path / "q.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,q1"
        assert len(lines) == 31


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
                     "--samples", "60", "--seed", "3", "--outdir", str(tmp_path)])
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

    def test_manifest_checksums_match_files(self, bump_files, tmp_path):
        a, b = bump_files
        out = tmp_path / "dp"
        main(["align-dp", str(a), str(b), "--points", "60", "--grid-size", "60",
              "--outdir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
