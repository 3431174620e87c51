"""Command line front end: classify, area, random, verify, plot.

Triangle documents are JSON objects:

    {"schema": 1, "signature": "-++", "vertices": [[x0,x1,x2], ...]}

classify and area accept one document or one per line; random emits one
document per line so its output pipes straight back in.  Exit codes:
0 success, 1 verification failed or another geometry error, 2 invalid
input or usage, 3 degenerate triangle, 4 area of a non-contractible
triangle, 5 null or impossible edge where a traceable one is needed,
6 sampling budget exhausted.  Codes 1 and 3-6 are the raised error's
exit_code.

classify and area take each document's steps once: a vertex row is
type-checked and finiteness-checked once before DeSitterPoint, the name
is classify_triangle's (a built triangle keeps it), and every report is
written by one shared encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .areas import girard_area
from .errors import GeometryError, NotUnitError
from .geodesics import DeSitterPoint, SegmentKind, geodesic_point
from .minkowski import AngleBranch, _dot
from .oracle import (
    _DEFAULT_CHECK_GRID,
    _MAX_GRID,
    _ORACLE_GROUP,
    GeneratorConfig,
    _integrate_many,
    random_triangle,
    verify_type,
)
from .triangles import (
    _AREA_TYPES,
    DeSitterTriangle,
    _normals,
    _polar_kinds,
    build_triangle,
    classify_triangle,
)

SCHEMA = 1
SIGNATURE = "-++"

EXIT_OK = 0
EXIT_USAGE = 2

_TARGETS = {name.value: name for name in _AREA_TYPES}
# json.dumps's output with no circular-reference check: every report is a fresh tree.
_encode = json.JSONEncoder(check_circular=False).encode
# The wire string of each angle branch and edge kind: a dict read costs less than .value.
_WIRE = {member: member.value for member in (*AngleBranch, *SegmentKind)}
_GRID_HELP = f"oracle resolution 8 <= n <= {_MAX_GRID}: n // 8 starting panels per edge"


class DocumentError(Exception):
    """Invalid triangle document."""


def _positive_int(text: str) -> int:
    # On a ValueError argparse would print this function's name; text that
    # is no int is refused with the wording below, as 0 is.
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_documents(raw: str) -> list[dict]:
    text = raw.strip()
    if not text:
        raise DocumentError("empty input")
    if text.startswith("["):
        raise DocumentError("expected an object per document, not a JSON array")
    docs = []
    try:
        for lineno, line in enumerate(raw.splitlines(), 1):
            if line.strip():
                docs.append(json.loads(line))
    except json.JSONDecodeError as exc:
        if docs:  # earlier lines parsed alone: a JSONL stream
            raise DocumentError(
                f"not valid JSON on line {lineno}: {exc.msg} at column {exc.colno}") from exc
        # Fall back to one pretty-printed document spanning many lines.
        try:
            docs = [json.loads(text)]
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from exc
    return docs


def _document_points(doc: dict) -> tuple[DeSitterPoint, DeSitterPoint, DeSitterPoint]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA:  # JSON true == 1 in Python
        raise DocumentError(f"unsupported schema: {schema!r}")
    sig = doc.get("signature", SIGNATURE)
    if sig != SIGNATURE:
        raise DocumentError(f"unsupported signature: {sig!r}")
    rows = doc.get("vertices")
    if not isinstance(rows, list) or len(rows) != 3:
        raise DocumentError("vertices must be a list of three rows")
    points = []
    for i, row in enumerate(rows):
        # One type test and one finiteness test; three JSON floats are used as they are.
        v = row if type(row) is list and len(row) == 3 \
            and type(row[0]) is type(row[1]) is type(row[2]) is float else _number_row(row, i)
        if not all(map(math.isfinite, v)):
            raise DocumentError(f"vertex row {i + 1} has non-finite components")
        try:
            points.append(DeSitterPoint(v))
        except NotUnitError:
            raise DocumentError(f"vertex row {i + 1} is off the quadric: "
                                f"<v,v> = {_dot(v, v)!r}") from None
    return tuple(points)


def _number_row(row, i: int) -> list[float]:
    # Vertex row i, which is not three floats, as floats, or its DocumentError.
    # JSON true and false parse as bool, a subclass of int.
    if not isinstance(row, list) or len(row) != 3 \
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row):
        raise DocumentError(f"vertex row {i + 1} must hold three numbers")
    try:
        return [float(x) for x in row]
    except OverflowError:
        raise DocumentError(f"vertex row {i + 1} has an integer beyond the float range") from None


def _triangle_document(points, metadata: dict | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "signature": SIGNATURE,
        "vertices": [list(p._x) for p in points],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _edge_report(edges) -> list[dict]:
    report = []
    # ends is triangles._others(j), the vertices edge j joins.
    for j, ends, seg in zip((0, 1, 2), ([1, 2], [2, 0], [0, 1]), edges):
        entry = {
            "opposite_vertex": j,
            "endpoints": ends,
            "inner_product": _dot(seg.a._x, seg.b._x),
            "kind": _WIRE[seg.kind],
        }
        if seg.kind in (SegmentKind.ELLIPSE_PART, SegmentKind.HYPERBOLA_PART):
            entry["length"] = seg.separation
        report.append(entry)
    return report


def _classify_report(points) -> dict:
    kind = classify_triangle(*points)
    report = {
        "schema": SCHEMA,
        "kind": kind.kind.value,
        "edge_counts": list(kind.edge_counts),
        "proper_name": kind.proper_name.value,
        "contractible": kind.contractible,
        "edges": _edge_report(kind.edges),
    }
    if kind.proper_name in _AREA_TYPES:
        # polar_triangle's vertices and kinds, with no tangent computed.
        normals = _normals(points)
        report["polar_triangle"] = {
            "vertices": normals,
            "kinds": [k.value for k in _polar_kinds(normals)],
        }
    return report


def _emit(obj) -> None:
    sys.stdout.write(_encode(obj) + "\n")


def cmd_classify(args) -> int:
    docs = _parse_documents(_read_text(args.input))
    for doc in docs:
        _emit(_classify_report(_document_points(doc)))
    return EXIT_OK


def _area_report(points) -> tuple[dict, DeSitterTriangle]:
    # area's report on a document's points, with no oracle block, and their triangle.
    tri = build_triangle(*points)
    res = girard_area(tri)
    nabla = res.complex_area
    report = {
        "schema": SCHEMA,
        "proper_name": tri._name.value,
        "real_area": res.real_area,
        "complex_area": {"re": nabla.real, "im": nabla.imag},
        "formula_used": res.formula_used.value,
        "distinguished_vertex": res.distinguished_vertex,
        "angles": [
            {"vertex": j, "theta": theta, "phi": {"re": phi.value.real, "im": phi.value.imag},
             "branch": _WIRE[phi.branch]}
            for j, theta, phi in zip((0, 1, 2), res.angles.theta, res.angles.phi)
        ],
    }
    return report, tri


def cmd_area(args) -> int:
    docs = _parse_documents(_read_text(args.input))
    for lo in range(0, len(docs), _ORACLE_GROUP):
        # The group's closed forms up to the first document that fails,
        # then, with --oracle, one oracle call on their triangles.  Reports
        # go out in order up to the first oracle error, and the failed
        # document's error comes after them: as if each document were
        # taken in turn.
        done, stop = [], None
        try:
            for doc in docs[lo:lo + _ORACLE_GROUP]:
                done.append(_area_report(_document_points(doc)))
        except (DocumentError, GeometryError, ValueError) as exc:
            stop = exc
        oracles = [None] * len(done)
        if args.oracle and done:
            oracles = _integrate_many([tri for _, tri in done], args.grid)
        for (report, _), orc in zip(done, oracles):
            if isinstance(orc, Exception):
                raise orc
            if orc is not None:
                report["oracle"] = {
                    "area": orc.area,
                    "est_error": orc.est_error,
                    "grid": list(orc.grid),
                    "refinements": orc.refinements,
                    "discrepancy": abs(orc.area - report["real_area"]),
                }
            _emit(report)
        if stop is not None:
            raise stop
    return EXIT_OK


def cmd_random(args) -> int:
    target = _TARGETS[args.type]
    rows = []
    for i in range(args.count):
        cfg = GeneratorConfig(seed=args.seed + i, target=target,
                              u_max=args.u_max, max_attempts=args.max_attempts)
        tri = random_triangle(cfg)
        meta = {"name": f"{args.type}-{i}", "seed": args.seed + i, "type": args.type}
        rows.append((tri, meta))
    if args.format == "csv":
        header = ["name", "seed", "type"] + [f"p{i}_x{c}" for i in (1, 2, 3) for c in (0, 1, 2)]
        sys.stdout.write(",".join(header) + "\n")
        for tri, meta in rows:
            cells = [meta["name"], str(meta["seed"]), meta["type"]]
            cells += [repr(x) for p in tri.points for x in p._x]
            sys.stdout.write(",".join(cells) + "\n")
    else:
        for tri, meta in rows:
            _emit(_triangle_document(tri.points, meta))
    return EXIT_OK


def cmd_verify(args) -> int:
    targets = list(_TARGETS.values()) if args.type == "all" else [_TARGETS[args.type]]
    reports = {}
    ok = True
    for target in targets:
        rep = verify_type(target, trials=args.trials, seed=args.seed, grid=args.grid)
        reports[target.value] = rep
        ok = ok and rep["passed"]
    _emit({"schema": SCHEMA, "types": reports, "passed": ok})
    return EXIT_OK if ok else 1


_EDGE_STYLE = {
    SegmentKind.ELLIPSE_PART: ("spacelike", "#2166ac"),
    SegmentKind.HYPERBOLA_PART: ("timelike", "#b2182b"),
}


def cmd_plot(args) -> int:
    import numpy as np

    docs = _parse_documents(_read_text(args.input))
    if len(docs) != 1:
        raise DocumentError("plot expects exactly one document")
    points = _document_points(docs[0])
    segs = build_triangle(*points).edges

    # Orthographic projection dropping the time coordinate.
    polylines = []
    for seg in segs:
        ts = np.linspace(0.0, 1.0, args.samples)
        pts = [geodesic_point(seg, float(t)).v for t in ts]
        polylines.append((seg.kind, [(p[1], p[2]) for p in pts]))
    xs = [x for _, line in polylines for x, _ in line]
    ys = [y for _, line in polylines for _, y in line]
    xs += [-1.0, 1.0]
    ys += [-1.0, 1.0]
    pad = 0.15 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad

    scale = 480.0 / max(x1 - x0, y1 - y0)
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def sx(x): return (x - x0) * scale
    def sy(y): return (y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<circle cx="{sx(0):.3f}" cy="{sy(0):.3f}" r="{scale:.3f}" '
        f'fill="none" stroke="#999999" stroke-dasharray="4 3" stroke-width="1"/>',
    ]
    for kind, line in polylines:
        cls, color = _EDGE_STYLE[kind]
        coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in line)
        parts.append(f'<polyline class="{cls}" points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    for i, p in enumerate(points):
        parts.append(f'<circle cx="{sx(p.v[1]):.3f}" cy="{sy(p.v[2]):.3f}" r="4" '
                     f'fill="#333333"/>')
        parts.append(f'<text x="{sx(p.v[1]) + 6:.3f}" y="{sy(p.v[2]) - 6:.3f}" '
                     f'font-family="sans-serif" font-size="13">p{i + 1}</text>')
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstrig",
        description="Classify, measure and plot geodesic triangles on the de Sitter quadric.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="name a triangle from its edge kinds")
    p.add_argument("--input", required=True, help="JSON document path, or - for stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("area", help="closed-form area with optional numeric check")
    p.add_argument("--input", required=True, help="JSON document path, or - for stdin")
    p.add_argument("--oracle", action="store_true", help="also integrate numerically")
    p.add_argument("--grid", type=_positive_int, default=_DEFAULT_CHECK_GRID, help=_GRID_HELP)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("random", help="emit seeded random triangle documents")
    p.add_argument("--type", required=True, choices=sorted(_TARGETS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--u-max", type=float, default=2.0)
    p.add_argument("--max-attempts", type=_positive_int, default=20000)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify", help="run the identity checks on random triangles")
    p.add_argument("--type", default="all", choices=sorted(_TARGETS) + ["all"])
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=_positive_int, default=_DEFAULT_CHECK_GRID, help=_GRID_HELP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="SVG sketch, edges keyed by causal type")
    p.add_argument("--input", required=True, help="JSON document path, or - for stdin")
    p.add_argument("--out", required=True, help="output SVG path, or - for stdout")
    p.add_argument("--samples", type=_positive_int, default=128)
    p.set_defaults(func=cmd_plot)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a small command; main() reuses one.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
