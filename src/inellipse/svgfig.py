"""Minimal SVG 1.1 writer for quadrilateral/ellipse figures."""

from __future__ import annotations

import math
from typing import Iterable

from .conic import EllipseGeometry, Point

#: number of polyline segments used to approximate an ellipse
ELLIPSE_SEGMENTS = 256
#: width of the figure in pixels; its height follows the drawing's aspect
WIDTH = 640


class Figure:
    """Collects geometric elements and renders them as a standalone SVG."""

    def __init__(self):
        self._elements: list[tuple[str, dict, list[Point]]] = []

    def add_polygon(self, pts: Iterable[Point], cls: str, style: str) -> None:
        self._elements.append(("polygon", {"class": cls, "style": style}, list(pts)))

    def add_polyline(self, pts: Iterable[Point], cls: str, style: str) -> None:
        self._elements.append(("polyline", {"class": cls, "style": style}, list(pts)))

    def add_segment(self, p: Point, q: Point, cls: str, style: str) -> None:
        self._elements.append(("line", {"class": cls, "style": style}, [p, q]))

    def add_marker(self, p: Point, cls: str, style: str) -> None:
        self._elements.append(("circle", {"class": cls, "style": style}, [p]))

    def add_ellipse(self, geo: EllipseGeometry) -> None:
        ux, uy = geo.major_axis_direction
        vx, vy = -uy, ux
        cx, cy = geo.center
        pts = []
        for i in range(ELLIPSE_SEGMENTS + 1):
            th = 2.0 * math.pi * i / ELLIPSE_SEGMENTS
            ca, sa = math.cos(th), math.sin(th)
            pts.append((cx + geo.semi_major * ca * ux + geo.semi_minor * sa * vx,
                        cy + geo.semi_major * ca * uy + geo.semi_minor * sa * vy))
        self.add_polyline(pts, "ellipse", "fill:none;stroke:#1f77b4;stroke-width:1.5")

    def render(self) -> str:
        xs = [p[0] for _, _, pts in self._elements for p in pts]
        ys = [p[1] for _, _, pts in self._elements for p in pts]
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        minx, maxx = min(xs), max(xs)
        miny, maxy = min(ys), max(ys)
        # offsets are divided by the span first, so no span's size overflows
        span = max(maxx - minx, maxy - miny) or 1.0
        pad = 0.05
        scale = WIDTH / (1.0 + 2.0 * pad)
        height = int(round(((maxy - miny) / span + 2.0 * pad) * scale))
        marker_r = 0.008 * WIDTH

        def to_px(p: Point) -> tuple[float, float]:
            return (((p[0] - minx) / span + pad) * scale,
                    ((maxy - p[1]) / span + pad) * scale)

        body = []
        for kind, attrs, pts in self._elements:
            common = f'class="{attrs["class"]}" style="{attrs["style"]}"'
            if kind in ("polygon", "polyline"):
                coords = " ".join("%.3f,%.3f" % to_px(p) for p in pts)
                body.append(f'<{kind} {common} points="{coords}" />')
            elif kind == "line":
                (x1, y1), (x2, y2) = to_px(pts[0]), to_px(pts[1])
                body.append(f'<line {common} x1="{x1:.3f}" y1="{y1:.3f}" '
                            f'x2="{x2:.3f}" y2="{y2:.3f}" />')
            elif kind == "circle":
                cx, cy = to_px(pts[0])
                body.append(f'<circle {common} cx="{cx:.3f}" cy="{cy:.3f}" '
                            f'r="{marker_r:.3f}" />')
        return ("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{WIDTH}" height="{height}" '
                f'viewBox="0 0 {WIDTH} {height}">\n'
                + "\n".join(body) + "\n</svg>\n")
