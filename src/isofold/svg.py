"""Static two-panel SVG figures: domain triangulation and its image.

Every coordinate that reaches the file goes through the exact decimal
formatter, so rendering the same map twice yields byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .exactreal import decimal_string
from .extension import Instance
from .geometry import Point
from .plmap import PLMap

__all__ = ["render_svg", "svg_document"]

PANEL = 420
GAP = 60
MARGIN = 30
HEIGHT = PANEL + 2 * MARGIN
WIDTH = 2 * PANEL + GAP + 2 * MARGIN

FILL_BY_KIND = {
    "identity": "#d9d9d9",
    "translation": "#9ecae1",
    "rotation": "#a1d99b",
    "reflection": "#fdae6b",
    "glide_reflection": "#dadaeb",
}


def _bounds(points):
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return min(xs), max(xs), min(ys), max(ys)


class _Frame:
    """Affine placement of one panel, y flipped for screen coordinates."""

    def __init__(self, bounds, offset_x):
        xmin, xmax, ymin, ymax = bounds
        span = max(xmax - xmin, ymax - ymin, Fraction(1))
        self.scale = Fraction(PANEL) / span
        self.xmin, self.ymax = xmin, ymax
        self.offset_x = offset_x

    def place(self, p: Point) -> str:
        x = self.offset_x + (p.x - self.xmin) * self.scale
        y = MARGIN + (self.ymax - p.y) * self.scale
        return f"{decimal_string(x, 3)},{decimal_string(y, 3)}"


def _panel(frame, triangles, labels, title):
    parts = [f'<g><text x="{frame.offset_x}" y="{MARGIN - 10}" font-size="14">{title}</text>']
    for tri, kind in triangles:
        pts = " ".join(frame.place(v) for v in tri)
        fill = FILL_BY_KIND.get(kind, "#ffffff")
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.75" '
            f'stroke="#333333" stroke-width="1"/>'
        )
    for name, p in labels:
        at = frame.place(p).split(",")
        parts.append(
            f'<circle cx="{at[0]}" cy="{at[1]}" r="3" fill="#000000"/>'
            f'<text x="{at[0]}" y="{at[1]}" dx="5" dy="-5" font-size="12">{name}</text>'
        )
    parts.append("</g>")
    return "".join(parts)


def svg_document(f: PLMap, inst: Instance) -> str:
    source_tris = []
    image_tris = []
    image_points = []
    for t in range(len(f)):
        tri = f.cell(t)
        m = f.restrict_motion(t)
        kind = m.kind()
        corners = (tri.v0, tri.v1, tri.v2)
        images = tuple(m.apply(v) for v in corners)
        source_tris.append((corners, kind))
        image_tris.append((images, kind))
        image_points.extend(images)

    left = _Frame(_bounds(f.vertices), MARGIN)
    right = _Frame(_bounds(image_points), MARGIN + PANEL + GAP)

    source_labels = [(f"a{i + 1}", a) for i, a in enumerate(inst.sources)]
    target_labels = [(f"b{i + 1}", b) for i, b in enumerate(inst.targets)]

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        f"{_panel(left, source_tris, source_labels, 'domain')}\n"
        f"{_panel(right, image_tris, target_labels, 'image')}\n"
        "</svg>\n"
    )


def render_svg(f: PLMap, inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg_document(f, inst))
