"""Exit-code contract and output determinism of the command line."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from isofold.cli import main
from isofold.fileio import instance_hash, parse_instance, serialize_map
from isofold.geometry import ConvexPolygon, Point, Triangle
from isofold.motions import Motion
from isofold.plmap import assemble

GOLDEN = {
    "points": [
        {"a": ["0", "0"], "b": ["0", "0"]},
        {"a": ["4", "0"], "b": ["4", "0"]},
        {"a": ["0", "4"], "b": ["2", "2"]},
    ]
}


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return path


def write_instance(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"points": [
        {"a": [str(ax), str(ay)], "b": [str(bx), str(by)]}
        for ax, ay, bx, by in rows
    ]}))
    return path


def stderr_json(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestExtend:
    def test_golden_succeeds(self, golden_path, tmp_path):
        out = tmp_path / "map.json"
        svg = tmp_path / "fig.svg"
        code = main([
            "extend", "--input", str(golden_path),
            "--output", str(out), "--svg", str(svg), "--samples", "50",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["tool_version"] == "0.1.0"
        assert len(doc["map"]["triangles"]) == 3
        assert doc["audits"]["all_passed"] is True
        assert svg.read_text().startswith("<svg")

    def test_stdout_when_no_output(self, golden_path, capsys):
        code = main([
            "extend", "--input", str(golden_path),
            "--verify", "none",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "map" in doc
        assert "audits" not in doc

    def test_verify_none_skips_audits(self, golden_path, tmp_path):
        out = tmp_path / "map.json"
        assert main([
            "extend", "--input", str(golden_path),
            "--output", str(out), "--verify", "none",
        ]) == 0
        assert "audits" not in json.loads(out.read_text())

    def test_approx_mode(self, golden_path, tmp_path):
        out = tmp_path / "map.json"
        assert main([
            "extend", "--input", str(golden_path),
            "--output", str(out), "--verify", "approx", "--samples", "30",
        ]) == 0

    def test_deterministic_outputs(self, golden_path, tmp_path):
        pairs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.json"
            svg = tmp_path / f"{tag}.svg"
            assert main([
                "extend", "--input", str(golden_path),
                "--output", str(out), "--svg", str(svg), "--samples", "40",
            ]) == 0
            pairs.append((out.read_bytes(), svg.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_stretched_pair_exit_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, "s.json", [(0, 0, 0, 0), (1, 0, 3, 0)])
        assert main(["extend", "--input", str(path)]) == 2
        err = stderr_json(capsys)
        assert err["error"] == "nonexpansiveness_violation"
        assert err["pair"] == [0, 1]

    def test_collinear_exit_3(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, "c.json", [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)]
        )
        assert main(["extend", "--input", str(path)]) == 3
        err = stderr_json(capsys)
        assert err["error"] == "degenerate_hull"
        assert err["dimension"] == 1

    def test_single_point_exit_3(self, tmp_path, capsys):
        path = write_instance(tmp_path, "p.json", [(2, 3, 5, 3)])
        assert main(["extend", "--input", str(path)]) == 3
        assert stderr_json(capsys)["dimension"] == 0

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        assert main(["extend", "--input", str(path)]) == 1
        assert stderr_json(capsys)["error"] == "parse"

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["extend", "--input", str(tmp_path / "absent.json")]) == 1
        assert stderr_json(capsys)["error"] == "io"

    def test_float_coordinates_rejected(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"points": [{"a": ["0.5", "0"], "b": ["0", "0"]}]}')
        assert main(["extend", "--input", str(path)]) == 1
        assert stderr_json(capsys)["error"] == "parse"


class TestVerify:
    def make_map(self, golden_path, tmp_path) -> str:
        out = tmp_path / "map.json"
        assert main([
            "extend", "--input", str(golden_path),
            "--output", str(out), "--samples", "30",
        ]) == 0
        return str(out)

    def test_round_trip_verifies(self, golden_path, tmp_path, capsys):
        path = self.make_map(golden_path, tmp_path)
        assert main([
            "verify", "--map", path, "--instance", str(golden_path),
            "--samples", "30",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True

    def test_corrupted_map_exit_4(self, golden_path, tmp_path, capsys):
        path = self.make_map(golden_path, tmp_path)
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["map"]["motions"][0]["r"][0][0] = "2"
        (tmp_path / "map.json").write_text(json.dumps(doc))
        assert main([
            "verify", "--map", path, "--instance", str(golden_path),
            "--samples", "30",
        ]) == 4
        err = stderr_json(capsys)
        assert err["error"] == "audit_failure"
        assert any("structure" in name for name in err["failed"])

    def test_mismatched_instance_exit_4(self, golden_path, tmp_path, capsys):
        path = self.make_map(golden_path, tmp_path)
        other = write_instance(
            tmp_path, "other.json",
            [(0, 0, 0, 0), (4, 0, 4, 0), (0, 4, 0, 4)],
        )
        assert main([
            "verify", "--map", path, "--instance", str(other),
            "--samples", "30",
        ]) == 4
        err = stderr_json(capsys)
        assert "provenance.instance_hash" in err["failed"]
        assert any(name.startswith("interpolation") for name in err["failed"])

    def test_truncated_map_exit_1(self, golden_path, tmp_path, capsys):
        path = self.make_map(golden_path, tmp_path)
        text = (tmp_path / "map.json").read_text()
        (tmp_path / "map.json").write_text(text[: len(text) // 2])
        assert main([
            "verify", "--map", path, "--instance", str(golden_path),
        ]) == 1
        assert stderr_json(capsys)["error"] == "parse"

    def test_tiling_hole_exit_4_without_traceback(self, tmp_path, capsys):
        # Cell areas sum to the domain's, but one cell lies outside it and
        # half the domain is uncovered.
        dom = ConvexPolygon([Point(0, 0), Point(4, 0), Point(0, 4)])
        ident = Motion.identity()
        hole = assemble(dom, [
            (Triangle(Point(0, 0), Point(2, 0), Point(0, 2)), ident),
            (Triangle(Point(5, 0), Point(9, 0), Point(5, 3)), ident),
        ])
        instance = write_instance(
            tmp_path, "corners.json",
            [(0, 0, 0, 0), (4, 0, 4, 0), (0, 4, 0, 4)],
        )
        inst_hash = instance_hash(parse_instance(instance.read_text()))
        map_path = tmp_path / "hole.json"
        map_path.write_text(serialize_map(hole, inst_hash))
        assert main([
            "verify", "--map", str(map_path), "--instance", str(instance),
            "--samples", "30",
        ]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["error"] == "audit_failure"
        assert {"structure.area-sum", "lipschitz_exact"} <= set(err["failed"])
        report = json.loads(captured.out)
        lipschitz = next(c for c in report["checks"] if c["name"] == "lipschitz_exact")
        assert lipschitz["witness"][0]["error"] == "outside domain"


def test_module_entry_point(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GOLDEN))
    proc = subprocess.run(
        [sys.executable, "-m", "isofold", "extend", "--input", str(path),
         "--verify", "none"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tool_version"] == "0.1.0"
