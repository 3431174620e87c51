"""classify and area take each per-document step once.

A vertex row is type-checked and finiteness-checked once before
DeSitterPoint; classify_triangle names a triple from the sum of its edge
codes through triangles._CODE_TABLE, which the sampler's rules read too;
a built triangle keeps that name; and every report goes through the one
shared encoder, cli._encode.  The references below are the earlier code,
copied: each must give the same bits, or the same exception type and message.
"""

import gzip
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

import dstrig.cli
import dstrig.geodesics
import dstrig.triangles
from conftest import count_calls
from dstrig.cli import SCHEMA, SIGNATURE, DocumentError, _document_points, main
from dstrig.errors import NotUnitError
from dstrig.geodesics import DeSitterPoint, SegmentKind
from dstrig.minkowski import _dot
from dstrig.oracle import _TARGET_RULES
from dstrig.triangles import _CODE_TABLE, _NAME_TABLE, ProperName

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"


def _pool_docs():
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        return [json.loads(line)["doc"] for line in list(fh)[1:]]  # line 1: metadata


# -- the references -------------------------------------------------------------

def _ref_document_points(doc):
    # cli._document_points before its float-row fast path.
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA:
        raise DocumentError(f"unsupported schema: {schema!r}")
    sig = doc.get("signature", SIGNATURE)
    if sig != SIGNATURE:
        raise DocumentError(f"unsupported signature: {sig!r}")
    rows = doc.get("vertices")
    if not isinstance(rows, list) or len(rows) != 3:
        raise DocumentError("vertices must be a list of three rows")
    points = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3 \
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in row):
            raise DocumentError(f"vertex row {i + 1} must hold three numbers")
        try:
            v = [float(x) for x in row]
        except OverflowError:
            raise DocumentError(
                f"vertex row {i + 1} has an integer beyond the float range") from None
        if not all(map(math.isfinite, v)):
            raise DocumentError(f"vertex row {i + 1} has non-finite components")
        try:
            points.append(DeSitterPoint(v))
        except NotUnitError:
            raise DocumentError(f"vertex row {i + 1} is off the quadric: "
                                f"<v,v> = {_dot(v, v)!r}") from None
    return tuple(points)


def _ref_counts(kinds):
    # triangles._counts on the edge kinds, before the code table.
    return (kinds.count(SegmentKind.ELLIPSE_PART), kinds.count(SegmentKind.HYPERBOLA_PART),
            kinds.count(SegmentKind.NULL_LINE))


# The sampler's rules as the count table's sub-multisets made them.
_FROZEN_RULES = {
    ProperName.SPATIOLATERAL: (frozenset({1, 2, 3}), 3, True),
    ProperName.TEMPOLATERAL: (frozenset({4, 8, 12}), 12, False),
    ProperName.CHOROSCELES: (frozenset({1, 2, 4, 5, 6}), 6, False),
    ProperName.CHRONOSCELES: (frozenset({1, 4, 5, 8, 9}), 9, False),
    None: (frozenset({1, 2, 3, 4, 5, 6, 8, 9, 12}), 12, False),
}


def _outcome(fn, *args):
    """Each point's coordinates as float bits, or the exception's type and text."""
    try:
        return [[x.hex() for x in p._x] for p in fn(*args)]
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return type(exc).__name__, str(exc)


# -- validate once -------------------------------------------------------------

class TestDocumentPoints:
    GOOD = ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 1.0, 0.5])
    ROWS = {
        "floats": "[0.0, 0.6, 0.8]",
        "ints": "[0, 1, 0]",
        "mixed": "[0.5, 1, 0.5]",
        "negative zero": "[-0.0, -1.0, 0.0]",
        "true": "[true, 1, 0]",
        "false": "[0.0, 1.0, false]",
        "nan": "[NaN, 1.0, 0.0]",
        "-infinity": "[0.0, -Infinity, 1.0]",
        "int nan": "[0, 1, NaN]",
        "10**400": f"[0, 1{'0' * 400}, 1]",
        "2 elements": "[0.0, 1.0]",
        "4 elements": "[0.0, 1.0, 0.0, 0.0]",
        "string element": '[0.0, "1", 0.0]',
        "not a list": '{"x": 0.0}',
        "a number": "1.0",
        "off quadric": "[0.0, 0.5, 0.0]",
        "off quadric ints": "[0, 2, 0]",
        "overflowing square": "[1e200, 1e200, 1e200]",
    }

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_matches_reference(self, row, where):
        rows = [json.dumps(r) for r in self.GOOD]
        rows[where] = self.ROWS[row]
        doc = json.loads('{"schema": 1, "vertices": [%s]}' % ", ".join(rows))
        assert _outcome(_document_points, doc) == _outcome(_ref_document_points, doc)

    def test_first_failing_row_is_named(self):
        doc = json.loads('{"schema": 1, "vertices": [[0.0, 0.5, 0.0], [NaN, 1, 0], true]}')
        assert _outcome(_document_points, doc) == _outcome(_ref_document_points, doc) \
            == ("DocumentError", "vertex row 1 is off the quadric: <v,v> = 0.25")

    def test_matches_reference_on_pool(self):
        docs = _pool_docs()
        assert len(docs) == 512
        for doc in docs:
            assert _outcome(_document_points, doc) == _outcome(_ref_document_points, doc)


# -- classify once ---------------------------------------------------------------

class TestCodeTable:
    KINDS = {1: SegmentKind.ELLIPSE_PART, 4: SegmentKind.HYPERBOLA_PART,
             16: SegmentKind.NULL_LINE, 64: SegmentKind.IMPOSSIBLE}

    @pytest.mark.parametrize("codes", list(itertools.product((1, 4, 16, 64), repeat=3)))
    def test_sum_names_as_counts_did(self, codes):
        counts = _ref_counts([self.KINDS[c] for c in codes])
        assert _CODE_TABLE[sum(codes)] == (counts, _NAME_TABLE.get(counts, ProperName.NONE))

    def test_impossible_edge_names_none(self):
        assert {name for code, (_, name) in _CODE_TABLE.items() if code >= 64} \
            == {ProperName.NONE}
        assert ProperName.NONE not in {name for code, (_, name) in _CODE_TABLE.items()
                                       if code < 64}

    def test_keyed_by_int(self):
        assert all(type(code) is int for code in _CODE_TABLE)
        assert len(_CODE_TABLE) == 20  # three codes of four, with repetition

    def test_sampler_rules_unchanged(self):
        assert _TARGET_RULES == _FROZEN_RULES


class _CountingTable(dict):
    """A dict that counts its item reads."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestCachedName:
    @pytest.mark.parametrize("name", ["spatiolateral", "tempolateral",
                                      "chorosceles", "chronosceles"])
    def test_built_name_is_classify_name(self, request, monkeypatch, name):
        points = request.getfixturevalue(f"{name}_points")
        table = _CountingTable(_CODE_TABLE)
        monkeypatch.setattr(dstrig.triangles, "_CODE_TABLE", table)
        tri = dstrig.triangles.build_triangle(*points)
        assert dstrig.triangles.triangle_name(tri) is ProperName(name)
        assert dstrig.triangles._disk_name(tri) is ProperName(name)
        if name == "spatiolateral":
            assert dstrig.triangles.is_contractible(tri)
        assert table.reads == 1

    @pytest.mark.parametrize("name", ["spatiolateral", "tempolateral",
                                      "chorosceles", "chronosceles"])
    def test_hand_made_triangle_names_its_edges(self, request, name):
        tri = dstrig.triangles.build_triangle(*request.getfixturevalue(f"{name}_points"))
        made = dstrig.triangles.DeSitterTriangle(tri.points, tri.edges)
        assert "_name" not in vars(made)
        assert dstrig.triangles.triangle_name(made) is ProperName(name)
        assert vars(made)["_name"] is ProperName(name)


def _run(monkeypatch, capsys, argv, text=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


class TestOncePerDocument:
    def test_area_oracle_document(self, monkeypatch, capsys):
        doc = _pool_docs()[0]
        table = _CountingTable(_CODE_TABLE)
        monkeypatch.setattr(dstrig.triangles, "_CODE_TABLE", table)
        classify = count_calls(monkeypatch, dstrig.triangles, "classify_triangle")
        rows = count_calls(monkeypatch, dstrig.geodesics, "_float3")
        number_rows = count_calls(monkeypatch, dstrig.cli, "_number_row")
        out = _run(monkeypatch, capsys, ["area", "--input", "-", "--oracle", "--grid", "64"],
                   json.dumps(doc) + "\n")
        assert json.loads(out)["oracle"]["grid"]
        assert (len(classify), table.reads) == (1, 1)
        assert [args for args, in rows] == doc["vertices"]
        assert number_rows == []

    def test_int_rows_converted_once(self, monkeypatch, capsys):
        number_rows = count_calls(monkeypatch, dstrig.cli, "_number_row")
        rows = count_calls(monkeypatch, dstrig.geodesics, "_float3")
        _run(monkeypatch, capsys, ["classify", "--input", "-"],
             '{"schema": 1, "vertices": [[0, 1, 0], [0, 0, 1], [0.5, 1, 0.5]]}')
        assert [i for _, i in number_rows] == [0, 1, 2]
        assert [args for args, in rows] == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 1.0, 0.5]]


# -- encode once -----------------------------------------------------------------

class TestSharedEncoder:
    @pytest.fixture
    def checked(self, monkeypatch):
        # Every object the CLI emits, after checking the encoder against json.dumps.
        seen = []
        encode = dstrig.cli._encode

        def checking(obj):
            text = encode(obj)
            assert text == json.dumps(obj)
            seen.append(obj)
            return text

        monkeypatch.setattr(dstrig.cli, "_encode", checking)
        return seen

    @pytest.mark.parametrize("argv", [
        ["classify", "--input", "-"],
        ["area", "--input", "-"],
        ["area", "--input", "-", "--oracle", "--grid", "64"],
    ], ids=["classify", "area", "area-oracle"])
    def test_document_reports(self, monkeypatch, capsys, checked, argv):
        docs = _pool_docs()[::64]
        out = _run(monkeypatch, capsys, argv, "".join(json.dumps(d) + "\n" for d in docs))
        assert len(checked) == len(docs) == len(out.splitlines())

    def test_random_documents(self, monkeypatch, capsys, checked):
        out = _run(monkeypatch, capsys, ["random", "--type", "chronosceles", "--seed", "5",
                                         "--u-max", "6", "--count", "3"])
        assert len(checked) == 3 == len(out.splitlines())

    def test_verify_report(self, monkeypatch, capsys, checked):
        _run(monkeypatch, capsys, ["verify", "--type", "chorosceles", "--trials", "2",
                                   "--seed", "3"])
        assert len(checked) == 1 and checked[0]["passed"] is True

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324,
                                       "déjà ☃ \U0001f600", "\x00\n\"\\"],
                             ids=repr)
    def test_special_values(self, value):
        obj = {"x": [value, {"y": value}], "z": value}
        assert dstrig.cli._encode(obj) == json.dumps(obj)
