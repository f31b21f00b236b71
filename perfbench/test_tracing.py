"""Tracing must not change what the program writes.

Run with:  python3 -m pytest perfbench/test_tracing.py
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer  # noqa: E402
from isofold import cli, extension, geometry, plmap  # noqa: E402


def _extend(tmp_path, name, instance_path):
    map_path = tmp_path / f"{name}.map.json"
    svg_path = tmp_path / f"{name}.svg"
    code = cli.main([
        "extend", "--input", str(instance_path), "--output", str(map_path),
        "--svg", str(svg_path), "--samples", "200",
    ])
    assert code == 0
    return map_path.read_bytes(), svg_path.read_bytes()


def test_tracing_leaves_map_and_svg_bytes_identical(tmp_path, capsys):
    rng = random.Random(7)
    for k, first in enumerate(gen.ALL_FAMILIES):
        pairs = gen.random_instance(rng, 7, first, gen.ALL_FAMILIES, k % 2)
        instance_path = tmp_path / f"i{k}.json"
        instance_path.write_text(gen.instance_json(pairs))
        plain = _extend(tmp_path, f"plain{k}", instance_path)
        tr = tracer.Tracer()
        tr.job = k
        with tr.installed():
            traced = _extend(tmp_path, f"traced{k}", instance_path)
        assert traced == plain
        assert not tr.missing
        assert tr.spans and all(span is not None for span in tr.spans)
        assert tr.counts["geometry.orientation"] > 0
    capsys.readouterr()


def test_uninstall_restores_every_original():
    before = (
        extension.extend_all_traced, plmap.assemble, plmap.PLMap.locate,
        geometry.orientation, plmap.orientation, cli.main,
    )
    tr = tracer.Tracer()
    with tr.installed():
        assert plmap.orientation is not before[4]
        assert geometry.orientation is plmap.orientation
    after = (
        extension.extend_all_traced, plmap.assemble, plmap.PLMap.locate,
        geometry.orientation, plmap.orientation, cli.main,
    )
    assert after == before
