"""The bulk CSV parser gives what the per-cell readers give, in bounded memory.

``read_features`` (CSV) parses a well-formed feature matrix in row chunks
with ``np.fromstring`` and reads any other file cell by cell;
``read_assignments`` and ``read_xy`` read every file cell by cell.
Random text, mostly near-valid, must give bit-equal values and equal
ids, or the same exception and message, as the frozen per-cell readers
in ``oracles``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius import dataio
from delius.dataio import (
    FeatureMatrix,
    read_assignments,
    read_features,
    read_xy,
    write_features,
)
from oracles import assignments_by_cell, features_csv_by_cell, traced_peak, xy_by_cell

_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NUMBERS = st.one_of(
    st.floats().map(repr),  # nan, inf, subnormals and 17-digit values
    st.text("0123456789.eE+-", max_size=12),
    st.sampled_from(["nan", "-inf", "Infinity", "1_0", " 1", "1 ", "0x1p3", "\u0661"]),
)
_IDS = st.sampled_from(["a", "b", "été", "x y", "p\x0cq", "", "id", "\udcff"]) | st.text(max_size=3)
_CLUSTERS = st.sampled_from(["0", "1", "+1", " 1", "-1", "1.0", "x"])
_SIMPLEX = st.sampled_from(["0.25,0.75", "0.5,0.5", "1.0,0.0", "0.1,0.9", "0.3,0.7000000001"])
# Each breaks the bulk grammar: the file must reach the per-cell reader.
_JUNK = st.sampled_from(
    ['"', "\r", "\n", "9" * 200_000, ",", "\r\n", "\n\n", " ", "_", "nan", "inf", "\0", "é"]
)


@st.composite
def _csv_text(draw, header, lead, simplex=False):
    """A header line (or none), then rows of an id, ``lead`` - 1 cluster
    cells and numbers.  A clean file keeps the bulk grammar; the others
    get junk spliced in, or any cells in rows of any width."""
    mode = draw(st.sampled_from(["clean", "junk", "chaos"]))
    width = draw(st.integers(lead, lead + 3))
    lines = [header(width)] if header else []
    for row in range(draw(st.integers(0, 5))):
        if mode == "chaos":
            cells = [draw(_IDS)] + [draw(_CLUSTERS)] * (lead - 1)
            cells += [draw(_NUMBERS) for _ in range(width - lead + draw(st.integers(-1, 1)))]
        else:
            cells = [f"r{row}", "é"] if lead == 1 else [f"é{row}", draw(st.sampled_from("01"))]
            cells = cells[:lead]
            if simplex and width == lead + 2:
                cells.append(draw(_SIMPLEX))
            else:
                cells += [draw(_FINITE) for _ in range(width - lead)]
        lines.append(",".join(cells))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    for _ in range(0 if mode == "clean" else draw(st.integers(1, 3))):
        # At an id's start, where csv quoting and line ends change the rows;
        # at any cell's edge; or anywhere.
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        edges = starts + [i for i, c in enumerate(text) if c == ","]
        at = draw(st.sampled_from(starts) | st.sampled_from(edges) | st.integers(0, len(text)))
        text = text[:at] + draw(_JUNK) + text[at:]
    return text.encode("utf-8", "surrogateescape")


def _features_header(width):
    return ",".join(["id"] + [f"v_{j}" for j in range(1, width)])


def _assignments_header(width):
    return ",".join(["id", "cluster"] + [f"q_{j}" for j in range(width - 2)])


def _xy_header(width):
    return "id,x,y" if width == 3 else ",".join(["id"] + [f"c_{j}" for j in range(1, width)])


def _matrix_bits(m):
    return m.ids, m.values.shape, m.values.view(np.uint64).tobytes()


def _assignment_bits(a):
    q = None if a.q is None else (a.q.shape, a.q.view(np.uint64).tobytes())
    return a.ids, a.hard.tobytes(), q


def _xy_bits(pair):
    ids, coords = pair
    return ids, coords.shape, coords.flags.c_contiguous, coords.view(np.uint64).tobytes()


# name -> (text strategy, reader, frozen per-cell reader, comparable form of a result)
READERS = {
    "features": (
        _csv_text(None, 1),
        lambda p: read_features(p, "csv"),
        lambda p: features_csv_by_cell(p, False),
        _matrix_bits,
    ),
    "features_header": (
        _csv_text(_features_header, 1),
        lambda p: read_features(p, "csv", header=True),
        lambda p: features_csv_by_cell(p, True),
        _matrix_bits,
    ),
    "assignments": (
        _csv_text(_assignments_header, 2, simplex=True),
        read_assignments,
        assignments_by_cell,
        _assignment_bits,
    ),
    "xy": (_csv_text(_xy_header, 1), read_xy, xy_by_cell, _xy_bits),
}


def _outcome(read, bits, path):
    try:
        return bits(read(path))
    except Exception as exc:  # the two readers must fail alike, whatever the failure
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bulk"))


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_reader_agrees_with_per_cell_reader(name, scratch_dir, data):
    text, read, frozen, bits = READERS[name]
    path = os.path.join(scratch_dir, name + ".csv")
    with open(path, "wb") as fh:
        fh.write(data.draw(text, label="file"))
    assert _outcome(read, bits, path) == _outcome(frozen, bits, path)


# Files at the edges of the bulk grammar, written for each reader: ``{h}``
# is its header line and ``{c}`` the cluster cell of an assignments row.
_HEADERS = {
    "features": "",
    "features_header": "id,1,2\n",  # never read, so it may look like data
    "assignments": "id,cluster,q_0,q_1\n",
    "xy": "id,x,y\n",
}
_EDGE_CASES = {
    "quoted-id": '{h}"r0",{c}0.25,0.75\nr1,{c}0.5,0.5\n',
    "unclosed-quote": '{h}"r0,{c}0.25,0.75\nr1,{c}0.5,0.5\n',
    "crlf": "{h}r0,{c}0.25,0.75\r\nr1,{c}0.5,0.5\r\n",
    "leading-cr": "{h}\rr0,{c}0.25,0.75\n",
    "blank-first-line": "\n{h}r0,{c}0.25,0.75\nr1,{c}0.5,0.5\n",
    "blank-lines": "{h}r0,{c}0.25,0.75\n\nr1,{c}0.5,0.5\n\n",
    "long-number": "{h}r0,{c}0.25,0.7" + "5" * 200_000 + "\n",
    "long-id": "{h}" + "r" * 200_000 + ",{c}0.25,0.75\n",
    "nul": "{h}r\x000,{c}0.25,0.75\n",
    "unicode-breaks": "{h}é\u2028\x85\x0c,{c}0.25,0.75\n",
    "ids-only": "{h}r0\nr1\n",
    "trailing-comma": "{h}r0,{c}0.25,0.75,\n",
    "ragged": "{h}r0,{c}0.25,0.75\nr1,{c}0.5\n",
    "underscore": "{h}r0,{c}0.25,0_75\n",
    "space": "{h}r0,{c} 0.25,0.75\n",
    "nan": "{h}r0,{c}nan,0.75\n",
    "overflow": "{h}r0,{c}0.25,1e400\n",
    "signed-zero-subnormal": "{h}r0,{c}-0,5e-324\n",
}


@pytest.mark.parametrize("case", _EDGE_CASES)
@pytest.mark.parametrize("name", READERS)
def test_reader_agrees_at_grammar_edges(name, case, tmp_path):
    _, read, frozen, bits = READERS[name]
    path = str(tmp_path / "f.csv")
    text = _EDGE_CASES[case].format(h=_HEADERS[name], c="0," if name == "assignments" else "")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(read, bits, path) == _outcome(frozen, bits, path)


@pytest.mark.parametrize(
    "name, header, row",
    [
        ("assignments", header, "r0,0,0.5,0.5")
        for header in ["id,cluster,q_1,q_0", "id,cluster,q_0", "id,cluster", "id,label,q_0,q_1"]
    ]
    + [("assignments", "id,cluster,q_0,q_1", f"r0,{c},0.5,0.5") for c in ["x", " 1", "+1", "1.0"]]
    + [("assignments", "id,cluster", "r0,1")]
    + [
        ("xy", header, row)
        for header, row in [
            ("ID,x,y", "r0,1,2"),
            ("id,x", "r0,1,2"),
            ("id,x", "r0,1"),
            ("id,x,y,z", "r0,1,2"),
            ("id", "r0"),
            ("id,c_1,c_2,c_3", "r0,1,2,oops"),
        ]
    ],
)
def test_reader_agrees_on_header_and_lead_cells(name, header, row, tmp_path):
    _, read, frozen, bits = READERS[name]
    path = str(tmp_path / "f.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n{row}\n")
    assert _outcome(read, bits, path) == _outcome(frozen, bits, path)


def _well_formed(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-300, 300, size=(n, 5))
    ids = tuple(f"é-{i}" for i in range(n))
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("features", "features_header")}
    write_features(FeatureMatrix.from_array(values, ids), paths["features"])
    with open(paths["features_header"], "w", encoding="utf-8") as fh:
        fh.write(_features_header(6) + "\n")
        with open(paths["features"], encoding="utf-8") as body:
            fh.write(body.read())
    return paths


@pytest.mark.parametrize("n", [1, 2, 3000])  # 3000 rows span several chunks
def test_well_formed_files_never_reach_the_per_cell_reader(tmp_path, monkeypatch, n):
    paths = _well_formed(tmp_path, n)
    expected = {name: _outcome(READERS[name][2], _matrix_bits, paths[name]) for name in paths}

    def per_cell(*args):
        raise AssertionError("a well-formed file went to the per-cell reader")

    monkeypatch.setattr(dataio, "_csv_rows", per_cell)
    for name, path in paths.items():
        assert _matrix_bits(READERS[name][1](path)) == expected[name]


def test_csv_read_holds_one_full_size_array(tmp_path):
    # The per-cell reader held the file's text, a list of Python floats
    # and the array together: 16.2 x the array at this size.
    values = np.random.default_rng(3).normal(size=(2000, 256))
    path = str(tmp_path / "f.csv")
    write_features(FeatureMatrix.from_array(values), path)
    matrix, peak = traced_peak(lambda: read_features(path))
    assert np.array_equal(matrix.values, values)
    assert peak <= 2.5 * values.nbytes, f"peak {peak / values.nbytes:.2f} x the array"
