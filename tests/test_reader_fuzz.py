"""Every on-disk reader turns malformed input into a documented error.

Each reader gets arbitrary bytes, every truncation of a valid file and
single-byte changes of a valid file.  Whatever it is fed, it must either
return an object or raise a ``DeliusError`` whose exit code is 2 or 3;
any other exception would reach the command line as a traceback.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius.cli import _THREAD_ENV_VARS, main
from delius.dataio import (
    ClusterAssignments,
    FeatureMapBlock,
    FeatureMatrix,
    LabelManifest,
    read_assignments,
    read_feature_maps,
    read_features,
    read_label_manifest,
    read_xy,
    write_assignments,
    write_feature_maps,
    write_features,
    write_label_manifest,
    write_xy,
)
from delius.errors import DeliusError, FormatError
from delius.neural import Checkpoint, DenseLayer, MlpParams, load_checkpoint, save_checkpoint

VALUES = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, 1e-3], [7.5, 1.0, -0.25]])
IDS = ("a", "b", "c")


def _matrix(ids=None):
    return FeatureMatrix.from_array(VALUES, ids)


def _write_header_csv(path):
    write_features(_matrix(IDS), path)
    with open(path, "r+", encoding="utf-8") as fh:
        body = fh.read()
        fh.seek(0)
        fh.write("id,v_1,v_2,v_3\n" + body)


def _checkpoint():
    layers = [
        DenseLayer(w=np.arange(6.0).reshape(2, 3) / 8, b=np.array([0.5, -0.5]), activation="relu")
    ]
    return Checkpoint(
        params=MlpParams(layers=layers),
        seed=7,
        phase="dec",
        epoch=3,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )


# kind -> (file whose bytes are fuzzed, writer of a valid set of files, reader)
KINDS = {
    "delf": (
        "m.delf",
        lambda d: write_features(_matrix(), d + "/m.delf"),
        lambda d: read_features(d + "/m.delf"),
    ),
    "delm": (
        "m.delm",
        lambda d: write_feature_maps(FeatureMapBlock(values=VALUES.reshape(3, 1, 3)), d + "/m.delm"),
        lambda d: read_feature_maps(d + "/m.delm"),
    ),
    "ids": (
        "n.delf.ids",
        lambda d: write_features(_matrix(IDS), d + "/n.delf"),
        lambda d: read_features(d + "/n.delf"),
    ),
    "delc": (
        "m.delc",
        lambda d: save_checkpoint(d + "/m.delc", _checkpoint()),
        lambda d: load_checkpoint(d + "/m.delc"),
    ),
    "features_csv": (
        "f.csv",
        lambda d: write_features(_matrix(IDS), d + "/f.csv"),
        lambda d: read_features(d + "/f.csv"),
    ),
    "features_csv_header": (
        "h.csv",
        lambda d: _write_header_csv(d + "/h.csv"),
        lambda d: read_features(d + "/h.csv", header=True),
    ),
    "assignments": (
        "a.csv",
        lambda d: write_assignments(
            ClusterAssignments(
                ids=IDS,
                hard=np.array([0, 1, 1]),
                q=np.array([[0.75, 0.25], [0.5, 0.5], [0.125, 0.875]]),
            ),
            d + "/a.csv",
        ),
        lambda d: read_assignments(d + "/a.csv"),
    ),
    "manifest": (
        "l.csv",
        lambda d: write_label_manifest(
            LabelManifest(rows=(("a", "cubism", "portrait"), ("b", None, "landscape"))),
            d + "/l.csv",
        ),
        lambda d: read_label_manifest(d + "/l.csv"),
    ),
    "xy": (
        "xy.csv",
        lambda d: write_xy(d + "/xy.csv", IDS, VALUES[:, :2], pca_style=False),
        lambda d: read_xy(d + "/xy.csv"),
    ),
}
CSV_KINDS = ("features_csv", "features_csv_header", "assignments", "manifest", "xy")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> (directory holding a valid file set, bytes of the fuzzed file)."""
    out = {}
    for kind, (target, write, read) in KINDS.items():
        d = str(tmp_path_factory.mktemp(kind))
        write(d)
        read(d)
        with open(os.path.join(d, target), "rb") as fh:
            out[kind] = (d, fh.read())
    return out


def _read_as(kind, d, blob):
    """Feed ``blob`` to the reader; the error it raised, or None."""
    target, _, read = KINDS[kind]
    with open(os.path.join(d, target), "wb") as fh:
        fh.write(blob)
    try:
        read(d)
    except DeliusError as exc:
        assert exc.exit_code in (2, 3), f"{kind}: {exc!r}"
        return exc
    return None


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_arbitrary_bytes(kind, valid, data):
    d, good = valid[kind]
    blob = data.draw(st.binary(max_size=2 * len(good)), label="bytes")
    if data.draw(st.booleans(), label="after a valid prefix"):
        blob = good[: data.draw(st.integers(0, len(good)), label="prefix")] + blob
    _read_as(kind, d, blob)


@pytest.mark.parametrize("kind", KINDS)
def test_every_truncation(kind, valid):
    d, good = valid[kind]
    for size in range(len(good)):
        _read_as(kind, d, good[:size])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_single_byte_changes(kind, valid, data):
    d, good = valid[kind]
    pos = data.draw(st.integers(0, len(good) - 1), label="offset")
    value = data.draw(st.integers(0, 255), label="new byte")
    _read_as(kind, d, good[:pos] + bytes([value]) + good[pos + 1 :])


@pytest.mark.parametrize(
    "kind,size",
    [("delc", n) for n in range(4, 10)] + [(k, n) for k in ("delf", "delm") for n in range(5, 8)],
)
def test_short_binary_header_is_truncation(kind, size, valid):
    d, good = valid[kind]
    exc = _read_as(kind, d, good[:size])
    assert isinstance(exc, FormatError)
    assert "truncated" in str(exc)


def _second_row(good):
    return good.index(b"\n") + 1


@pytest.mark.parametrize("kind", CSV_KINDS + ("ids",))
def test_undecodable_byte_names_row(kind, valid):
    d, good = valid[kind]
    at = _second_row(good)
    exc = _read_as(kind, d, good[:at] + b"\xff" + good[at:])
    assert isinstance(exc, FormatError)
    assert "row 2" in str(exc) and "UTF-8" in str(exc)


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_oversized_cell_names_row(kind, valid):
    d, good = valid[kind]
    at = _second_row(good)
    exc = _read_as(kind, d, good[:at] + b"x" * 200_000 + good[at:])
    assert isinstance(exc, FormatError)
    assert "row 2" in str(exc)


def test_cli_reports_undecodable_assignments_as_malformed_data(valid, tmp_path, monkeypatch, capsys):
    for var in _THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    points = str(tmp_path / "points.csv")
    write_features(_matrix(IDS), points)
    d, good = valid["assignments"]
    bad = str(tmp_path / "assign.csv")
    with open(bad, "wb") as fh:
        fh.write(good[:-3] + b"\xff\n")
    code = main(
        ["eval", "--points", points, "--assignments", bad, "--out", str(tmp_path / "r.json")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "invalid UTF-8" in err and "Traceback" not in err
