"""One sha256 over the command line's output files on fixed instances.

For the golden instance and ``instance_suite(11, 8, max_points=6)`` it
runs ``isofold extend`` with the embedded audit at 200 samples and an
SVG, then ``isofold verify`` on that map and on a planted-defect copy
with every motion shifted by one unit (exit 4).  Exit codes, map JSON,
SVG and verify stdout all feed the hash, each with a length prefix.
``tests/test_cli.py`` pins the result, so any change to output bytes
shows up there.  Needs no pytest:

    PYTHONPATH=src:tests python tests/outputdigest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from isofold.cli import main
from isofold.extension import Instance
from isofold.fileio import serialize_instance
from isofold.geometry import Point
from instancegen import instance_suite

SAMPLES = "200"


def instances():
    golden = Instance(
        [Point(0, 0), Point(4, 0), Point(0, 4)], [Point(0, 0), Point(4, 0), Point(2, 2)]
    )
    return [golden] + instance_suite(11, 8, max_points=6)


def plant_defect(text: str) -> str:
    """Shift every motion by one unit: the map still tiles, but no source
    reaches its target."""
    doc = json.loads(text)
    for m in doc["map"]["motions"]:
        m["t"][0] = str(Fraction(m["t"][0]) + 1)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _run(argv):
    """Exit code and stdout of one in-process command; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue().encode()


def outputs(work: Path):
    """(label, exit code, bytes) for every output, in a fixed order."""
    for i, inst in enumerate(instances()):
        source = work / f"i{i}.instance.json"
        source.write_text(serialize_instance(inst))
        built, svg, planted = (
            work / f"i{i}{ext}" for ext in (".map.json", ".svg", ".planted.json")
        )
        code, _ = _run([
            "extend", "--input", source, "--output", built, "--svg", svg, "--samples", SAMPLES,
        ])
        yield f"{i} extend map", code, built.read_bytes()
        yield f"{i} extend svg", code, svg.read_bytes()
        planted.write_text(plant_defect(built.read_text()))
        for label, path in (("verify", built), ("verify planted", planted)):
            code, stdout = _run([
                "verify", "--map", path, "--instance", source, "--samples", SAMPLES,
            ])
            yield f"{i} {label}", code, stdout


def output_digest(work: Path):
    """The hex digest and the (label, exit code) list it covers."""
    h = hashlib.sha256()
    codes = []
    for label, code, data in outputs(work):
        codes.append((label, code))
        h.update(f"{label} {code} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest(), codes


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(output_digest(Path(tmp))[0])
