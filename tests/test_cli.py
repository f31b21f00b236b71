"""Exit-code contract and output determinism of the command line."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from isofold.cli import main
from isofold.fileio import instance_hash, parse_instance, serialize_map
from isofold.geometry import ConvexPolygon, Point, Triangle
from isofold.motions import Motion
from isofold.plmap import assemble
from outputdigest import output_digest

# The digest of tests/outputdigest.py, the same under Python 3.10 to
# 3.13.  It moves only when output bytes change, which CHANGES.md names.
OUTPUT_DIGEST = "6fddd8c52b6a5f58cf1f5a4b6062d3608e68f95924f4dfd6d5f2bc97033b83df"

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

    @pytest.mark.parametrize("points", [
        # A sliver whose bounding box is 10^7 times its area.
        [(0, "1/10000000"), (1, "10000001/10000000"), (1, "10000002/10000000")],
        # A triangle narrower than the sampling grid's spacing.
        [("1/1000000", "1/1000000"), ("2/1000000", "1/1000000"),
         ("1/1000000", "2/1000000")],
    ])
    def test_sampling_thin_or_tiny_domain(self, tmp_path, points):
        path = write_instance(tmp_path, "i.json", [(x, y, x, y) for x, y in points])
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "extend", "--input", str(path)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["audits"]["all_passed"] is True

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

    @pytest.mark.parametrize("literal", ["1/2\n", "\u0661/\u0662"])
    def test_newline_or_non_ascii_digit_exit_1(self, tmp_path, capsys, literal):
        path = write_instance(
            tmp_path, "l.json", [(literal, 0, 0, 0), (4, 0, 4, 0), (0, 4, 0, 4)]
        )
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

    def test_overlong_coordinate_exit_1_without_traceback(self, tmp_path):
        # Past Python's 4300-digit limit on parsing an int from a string.
        path = tmp_path / "long.json"
        path.write_text(json.dumps(
            {"points": [{"a": ["1" * 5000, "0"], "b": ["0", "0"]}]}
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "extend", "--input", str(path)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse"

    def test_map_number_past_digit_limit_exit_1_without_traceback(self, tmp_path):
        # Every literal parses, but the motions carry rationals past
        # Python's 4300-digit limit, which parse_map could not read back.
        d, e = 10**2200 + 7, 10**2199 + 3
        path = write_instance(tmp_path, "wide.json", [
            (0, 0, 0, 0), (d, 0, e, 0), (0, d, 0, e), (d, d, e, e),
        ])
        out = tmp_path / "map.json"
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "extend", "--input", str(path),
             "--output", str(out), "--verify", "none"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "number_too_long"
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["extend", "verify"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_1(self, golden_path, command, samples, capsys):
        files = (
            ["--input", str(golden_path)] if command == "extend"
            else ["--map", str(golden_path), "--instance", str(golden_path)]
        )
        assert main([command, *files, "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert "--samples" in err["detail"]

    @pytest.mark.parametrize("command", ["extend", "verify"])
    @pytest.mark.parametrize("option, value", [
        ("--samples", "\u0661\u0660"),
        ("--samples", " 10"),
        ("--samples", "10\n"),
        ("--seed", " \u0665 "),
        ("--seed", "\u0665"),
        ("--seed", "-\u0665"),
        ("--seed", "5 "),
    ])
    def test_non_ascii_digits_or_whitespace_exit_1(
        self, golden_path, command, option, value, capsys
    ):
        files = (
            ["--input", str(golden_path)] if command == "extend"
            else ["--map", str(golden_path), "--instance", str(golden_path)]
        )
        assert main([command, *files, option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert option in err["detail"]

    @pytest.mark.parametrize("seed", ["-7", "+7", "007"])
    def test_signed_ascii_seed_accepted(self, golden_path, seed, capsys):
        assert main([
            "extend", "--input", str(golden_path), "--samples", "5", "--seed", seed,
        ]) == 0

    def test_missing_input_exit_1(self, capsys):
        assert main(["extend", "--samples", "5"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert "--input" in err["detail"]


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

    def test_overlong_coordinate_exit_1_without_traceback(self, golden_path, tmp_path):
        path = self.make_map(golden_path, tmp_path)
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["map"]["vertices"][0][0] = "1" * 5000
        (tmp_path / "map.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "verify", "--map", path,
             "--instance", str(golden_path)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse"

    def test_witness_past_digit_limit_written_bounded(self, golden_path, tmp_path):
        # r00 = 10^4000 parses, but squared image gaps pass Python's
        # 4300-digit limit on writing an int as a string.
        path = self.make_map(golden_path, tmp_path)
        doc = json.loads((tmp_path / "map.json").read_text())
        for motion in doc["map"]["motions"]:
            motion["r"][0][0] = "1" + "0" * 4000
        (tmp_path / "map.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "verify", "--map", path,
             "--instance", str(golden_path)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 4
        assert len(proc.stderr.strip().splitlines()) == 1
        report = json.loads(proc.stdout)
        (witnesses,) = [c["witness"] for c in report["checks"] if c["name"] == "lipschitz_exact"]
        gaps = [w["image_gap_squared"] for w in witnesses]
        assert all(len(g) < 30 and g.startswith("~") for g in gaps)
        assert gaps[0].endswith("e+8000")

    def test_too_many_square_roots_exit_1(self, golden_path, tmp_path):
        # One vertex coordinate is two separately written 11-term sums of
        # square roots, subtracted: exactly 0, but with 22 sqrt nodes a
        # zero test would refine to a separation bound of degree 2**22.
        path = self.make_map(golden_path, tmp_path)
        nodes = []
        sums = []
        for _ in range(2):
            total = None
            for r in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17):
                nodes += [str(r), {"op": "sqrt", "args": [len(nodes)]}]
                if total is not None:
                    nodes.append({"op": "add", "args": [total, len(nodes) - 1]})
                total = len(nodes) - 1
            sums.append(total)
        nodes.append({"op": "sub", "args": sums})
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["map"]["vertices"][0][0] = {"nodes": nodes}
        (tmp_path / "map.json").write_text(json.dumps(doc))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "verify", "--map", path,
             "--instance", str(golden_path)],
            capture_output=True, text=True, timeout=30,
        )
        assert time.monotonic() - started < 1
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse"

    @pytest.mark.parametrize("number", [
        {"nodes": ["2", {"op": "sqrt", "args": [0]}]},
        {"nodes": ["1/3", "2/3", {"op": "add", "args": [0, 1]}]},
    ], ids=["sqrt", "add"])
    def test_expression_node_exit_1(self, golden_path, tmp_path, capsys, number):
        path = self.make_map(golden_path, tmp_path)
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["map"]["vertices"][0][0] = number
        (tmp_path / "map.json").write_text(json.dumps(doc))
        capsys.readouterr()
        started = time.monotonic()
        code = main(["verify", "--map", path, "--instance", str(golden_path)])
        assert time.monotonic() - started < 1
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse"

    def test_squaring_chain_exit_1(self, golden_path, tmp_path):
        # "1/3" squared 40 times through mul nodes, minus itself: its bits
        # double per node, so building it would never finish.
        path = self.make_map(golden_path, tmp_path)
        nodes = ["1/3"] + [{"op": "mul", "args": [k, k]} for k in range(40)]
        nodes.append({"op": "sub", "args": [40, 40]})
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["map"]["vertices"][0][0] = {"nodes": nodes}
        (tmp_path / "map.json").write_text(json.dumps(doc))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "isofold", "verify", "--map", path,
             "--instance", str(golden_path)],
            capture_output=True, text=True, timeout=30,
        )
        assert time.monotonic() - started < 1
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse"

    def test_deep_json_exit_1_without_traceback(self, golden_path, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        path = self.make_map(golden_path, tmp_path)
        capsys.readouterr()
        for argv in (
            ["extend", "--input", str(deep)],
            ["verify", "--map", str(deep), "--instance", str(golden_path)],
            ["verify", "--map", path, "--instance", str(deep)],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "parse"

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

    def test_lipschitz_witnesses_capped(self, tmp_path, capsys):
        # The tiling-hole map fails most of the default 1000 samples.
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
        map_path = tmp_path / "hole.json"
        map_path.write_text(
            serialize_map(hole, instance_hash(parse_instance(instance.read_text())))
        )
        assert main(["verify", "--map", str(map_path), "--instance", str(instance)]) == 4
        report = json.loads(capsys.readouterr().out)
        lipschitz = next(c for c in report["checks"] if c["name"] == "lipschitz_exact")
        samples = [w["sample"] for w in lipschitz["witness"]]
        assert len(samples) == 10
        assert samples == sorted(samples)


def test_output_bytes_pinned(tmp_path):
    digest, codes = output_digest(tmp_path)
    assert [code for _, code in codes] == [
        4 if label.endswith("planted") else 0 for label, _ in codes
    ]
    assert digest == OUTPUT_DIGEST


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
