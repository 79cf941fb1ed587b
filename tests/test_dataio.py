"""Container, format and sampling behaviour."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delius.dataio import (
    ClusterAssignments,
    FeatureMapBlock,
    FeatureMatrix,
    LabelManifest,
    default_ids,
    global_average_pool,
    labels_for,
    read_assignments,
    read_feature_maps,
    read_features,
    read_label_manifest,
    read_xy,
    stratified_sample,
    write_assignments,
    write_feature_maps,
    write_features,
    write_label_manifest,
    write_xy,
)
from delius.errors import ConfigError, DataError, FormatError, ShapeError
from delius.kmeans import kmeans_fit
from delius.metrics import calinski_harabasz, evaluate, silhouette
from delius.projection import TsneConfig, pca_fit, tsne_embed
from delius.rng import Rng
from oracles import (
    traced_peak,
    write_assignments_by_cell,
    write_features_csv_by_cell,
    write_xy_by_cell,
)


def _matrix(values, ids=None):
    return FeatureMatrix.from_array(np.asarray(values, dtype=np.float64), ids)


# ---------------------------------------------------------------------------
# containers


def test_matrix_rejects_nan_with_position():
    values = np.zeros((3, 4))
    values[1, 2] = np.nan
    with pytest.raises(DataError, match=r"\(1, 2\)"):
        _matrix(values)


def test_matrix_rejects_inf():
    values = np.zeros((2, 2))
    values[0, 1] = np.inf
    with pytest.raises(DataError):
        _matrix(values)


def test_matrix_rejects_empty():
    with pytest.raises(DataError):
        _matrix(np.zeros((0, 3)))
    with pytest.raises(DataError):
        _matrix(np.zeros((3, 0)))


def test_matrix_values_read_only():
    m = _matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_matrix_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate"):
        _matrix(np.zeros((2, 1)), ids=("a", "a"))


def test_matrix_rejects_multiline_id():
    with pytest.raises(DataError):
        _matrix(np.zeros((1, 1)), ids=("a\nb",))


def test_default_ids_are_row_indices():
    m = _matrix(np.zeros((3, 2)))
    assert m.ids == ("0", "1", "2")


_LABELS = np.arange(8) % 2

# Every entry point that takes an array of points or features, with its rank.
_INPUT_ARRAYS = {
    "kmeans_fit": (2, lambda v: kmeans_fit(v, 2, Rng(0))),
    "silhouette": (2, lambda v: silhouette(v, _LABELS)),
    "calinski_harabasz": (2, lambda v: calinski_harabasz(v, _LABELS)),
    "evaluate": (2, lambda v: evaluate(v, _LABELS, "embedded")),
    "pca_fit": (2, lambda v: pca_fit(v, 1)),
    "tsne_embed": (2, lambda v: tsne_embed(v, TsneConfig(perplexity=2.0, iterations=1))),
    "FeatureMatrix": (2, lambda v: FeatureMatrix.from_array(v)),
    "FeatureMapBlock": (3, lambda v: FeatureMapBlock(values=v)),
    "ClusterAssignments.q": (2, lambda v: ClusterAssignments(default_ids(8), _LABELS, q=v)),
}


@pytest.mark.parametrize("site", sorted(_INPUT_ARRAYS))
def test_input_arrays_share_one_rank_and_finite_rule(site):
    ndim, call = _INPUT_ARRAYS[site]
    values = np.random.default_rng(3).uniform(0.1, 1.0, size=(8, 3, 2)[:ndim])
    values /= values.sum(axis=1, keepdims=True)  # rows of soft assignments sum to 1
    call(values.copy())
    index = (5, 2, 1)[:ndim]
    bad = values.copy()
    bad[index] = np.nan
    where = ", ".join(map(str, index))
    with pytest.raises(DataError, match=re.escape(f"contains a non-finite value at ({where})")):
        call(bad)
    with pytest.raises(ShapeError, match=f"must be {ndim}-d, got shape"):
        call(values[None])


# ---------------------------------------------------------------------------
# pooling


def test_pool_matches_per_channel_means():
    # 2 rows, 3 channels, 4 cells of a ramp; oracle recomputes each mean
    # with plain Python sums.
    values = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    block = FeatureMapBlock(values=values)
    pooled = global_average_pool(block)
    assert pooled.values.shape == (2, 3)
    for r in range(2):
        for c in range(3):
            cells = [values[r, c, s] for s in range(4)]
            assert pooled.values[r, c] == pytest.approx(sum(cells) / 4, abs=0.0)


def test_pool_single_cell_is_identity():
    values = np.array([[[3.0], [7.0]]])
    pooled = global_average_pool(FeatureMapBlock(values=values))
    assert np.array_equal(pooled.values, [[3.0, 7.0]])


def test_pool_preserves_ids():
    block = FeatureMapBlock(values=np.ones((2, 2, 2)), ids=("x", "y"))
    assert global_average_pool(block).ids == ("x", "y")


@settings(deadline=None, max_examples=50)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_pool_bounded_by_cell_range(n, c, s, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, c, s))
    pooled = global_average_pool(FeatureMapBlock(values=values))
    lo = values.min(axis=2)
    hi = values.max(axis=2)
    assert np.all(pooled.values >= lo - 1e-12)
    assert np.all(pooled.values <= hi + 1e-12)


# ---------------------------------------------------------------------------
# binary feature files


def test_read_hand_packed_binary(tmp_path):
    # Header laid out field by field, independent of the writer.
    path = tmp_path / "m.delf"
    payload = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    header = b"DELF" + struct.pack("<HBBQQ", 1, 1, 0, 1, 4)
    path.write_bytes(header + payload)
    m = read_features(str(path))
    assert np.array_equal(m.values, [[1.0, 2.0, 3.0, 4.0]])
    assert m.ids == ("0",)


def test_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = _matrix(rng.normal(size=(7, 5)), ids=tuple(f"s{r}" for r in range(7)))
    path = str(tmp_path / "m.delf")
    write_features(m, path)
    back = read_features(path)
    assert back.values.tobytes() == m.values.tobytes()
    assert back.ids == m.ids


def test_binary_f64_read_holds_one_full_size_array(tmp_path):
    # The payload is a view of the file's bytes; a float64 copy of it took
    # 2.03 x the array.
    values = np.random.default_rng(4).normal(size=(2000, 256))
    path = str(tmp_path / "m.delf")
    write_features(_matrix(values), path)
    matrix, peak = traced_peak(lambda: read_features(path))
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= 1.2 * values.nbytes, f"peak {peak / values.nbytes:.2f} x the array"


def test_binary_f32_payload_widens(tmp_path):
    values = np.array([[0.5, 1.25]], dtype=np.float32)
    m = _matrix(values.astype(np.float64))
    path = str(tmp_path / "m.delf")
    write_features(m, path, dtype="f32")
    back = read_features(path)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, values.astype(np.float64))


def test_ids_sidecar_written_only_when_needed(tmp_path):
    plain = _matrix(np.ones((2, 2)))
    named = _matrix(np.ones((2, 2)), ids=("a", "b"))
    p1 = str(tmp_path / "plain.delf")
    p2 = str(tmp_path / "named.delf")
    write_features(plain, p1)
    write_features(named, p2)
    assert not (tmp_path / "plain.delf.ids").exists()
    assert (tmp_path / "named.delf.ids").read_text() == "a\nb\n"
    assert read_features(p2).ids == ("a", "b")


def test_bad_magic_names_offset(tmp_path):
    path = tmp_path / "m.delf"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="byte offset 0"):
        read_features(str(path))


def test_bad_version_names_offset(tmp_path):
    path = tmp_path / "m.delf"
    path.write_bytes(b"DELF" + struct.pack("<HBBQQ", 9, 1, 0, 1, 1) + bytes(8))
    with pytest.raises(FormatError, match="byte offset 4"):
        read_features(str(path))


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "m.delf"
    path.write_bytes(b"DELF" + struct.pack("<HBBQQ", 1, 7, 0, 1, 1) + bytes(8))
    with pytest.raises(FormatError, match="dtype"):
        read_features(str(path))


def test_zero_dimension_rejected(tmp_path):
    path = tmp_path / "m.delf"
    path.write_bytes(b"DELF" + struct.pack("<HBBQQ", 1, 1, 0, 1, 0))
    with pytest.raises(FormatError, match="zero dimension"):
        read_features(str(path))


def test_truncated_payload_reports_sizes(tmp_path):
    path = tmp_path / "m.delf"
    path.write_bytes(b"DELF" + struct.pack("<HBBQQ", 1, 1, 0, 2, 2) + bytes(16))
    with pytest.raises(FormatError, match="expected 32 bytes, found 16"):
        read_features(str(path))


def test_nan_payload_is_data_error(tmp_path):
    path = tmp_path / "m.delf"
    payload = struct.pack("<2d", 1.0, float("nan"))
    path.write_bytes(b"DELF" + struct.pack("<HBBQQ", 1, 1, 0, 1, 2) + payload)
    with pytest.raises(DataError):
        read_features(str(path))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no_such"):
        read_features(str(tmp_path / "no_such.delf"))


def test_unreadable_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_features(str(tmp_path), fmt="binary")


def test_sidecar_length_mismatch(tmp_path):
    m = _matrix(np.ones((2, 2)), ids=("a", "b"))
    path = str(tmp_path / "m.delf")
    write_features(m, path)
    (tmp_path / "m.delf.ids").write_text("a\n")
    with pytest.raises(FormatError, match="2 id lines"):
        read_features(path)


# ---------------------------------------------------------------------------
# feature map files


def test_feature_maps_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    block = FeatureMapBlock(values=rng.normal(size=(3, 4, 5)), ids=("a", "b", "c"))
    path = str(tmp_path / "maps.delm")
    write_feature_maps(block, path)
    back = read_feature_maps(path)
    assert back.values.tobytes() == block.values.tobytes()
    assert back.ids == ("a", "b", "c")


def test_feature_maps_reject_matrix_magic(tmp_path):
    m = _matrix(np.ones((2, 2)))
    path = str(tmp_path / "m.bin")
    write_features(m, path, fmt="binary")
    with pytest.raises(FormatError, match="magic"):
        read_feature_maps(path)


# ---------------------------------------------------------------------------
# CSV feature files


def test_csv_example(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,1.0,2.0,3.0\nb,4.0,5.0,6.0\n")
    m = read_features(str(path))
    assert m.ids == ("a", "b")
    assert np.array_equal(m.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    m = _matrix(rng.normal(size=(4, 3)), ids=("w", "x", "y", "z"))
    path = str(tmp_path / "f.csv")
    write_features(m, path)
    back = read_features(path)
    # repr round-trips every float64 exactly
    assert back.values.tobytes() == m.values.tobytes()
    assert back.ids == m.ids


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,1.0,2.0\nb,3.0\n")
    with pytest.raises(FormatError, match="row 2"):
        read_features(str(path))


def test_csv_bad_number_names_cell(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,1.0,oops\n")
    with pytest.raises(FormatError, match="column 3"):
        read_features(str(path))


# float() and int() take these cells as 10, 0 and 1; no writer makes them.
@pytest.mark.parametrize(
    "text, read, message",
    [
        ("id,cluster\na,1_0\nb, 0", read_assignments, "row 2, column 2: cannot parse '1_0'"),
        ("id,cluster\na,1\nb, 0", read_assignments, "row 3, column 2: cannot parse ' 0'"),
        ("r0,1_0,\u0661", read_features, "row 1, column 2: cannot parse '1_0'"),
        ("r0,1.0,\u0661", read_features, "row 1, column 3: cannot parse '\u0661'"),
        ("id,x,y\na,1.0,2.0\x0c\n", read_xy, "row 2, column 3: cannot parse '2.0\\x0c'"),
    ],
    ids=["assignments-underscore", "assignments-space", "features-underscore",
         "features-arabic-indic", "xy-form-feed"],
)
def test_cells_no_writer_produces_are_refused(tmp_path, text, read, message):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(message)):
        read(str(path))


@pytest.mark.parametrize(
    "text,read",
    [
        ("id,v_1,v_2\na,1.0,2.0\nb,3.0,oops\n", lambda p: read_features(p, header=True)),
        ("a,1.0,2.0\n\nb,3.0,oops\n", read_features),
        ("id,x,y\n\nb,3.0,oops\n", read_xy),
    ],
    ids=["features-header", "features-blank", "xy-blank"],
)
def test_csv_errors_name_file_row(tmp_path, text, read):
    # Header and blank lines count: the bad cell is on line 3 of each file.
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=r"row 3\b"):
        read(str(path))


def test_unknown_extension_needs_explicit_format(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        read_features(str(tmp_path / "file.dat"))


# ---------------------------------------------------------------------------
# label manifests


def _manifest_file(tmp_path, text):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    return str(path)


def test_manifest_parse_and_dense_indices(tmp_path):
    path = _manifest_file(
        tmp_path,
        "id,style,genre\n"
        "a,impressionism,landscape\n"
        "b,cubism,\n"
        "c,impressionism,portrait\n",
    )
    manifest = read_label_manifest(path)
    assert manifest.class_names("style") == ("cubism", "impressionism")
    assert labels_for(manifest, ("a", "b", "c"), "style").tolist() == [1, 0, 1]
    assert labels_for(manifest, ("a", "b", "c"), "genre").tolist() == [0, -1, 1]


def test_manifest_requires_exact_header(tmp_path):
    path = _manifest_file(tmp_path, "id,genre,style\na,x,y\n")
    with pytest.raises(FormatError, match="header"):
        read_label_manifest(path)


def test_manifest_roundtrip(tmp_path):
    manifest = LabelManifest(rows=(("a", "s1", None), ("b", None, "g1")))
    path = str(tmp_path / "out.csv")
    write_label_manifest(manifest, path)
    assert read_label_manifest(path) == manifest


def test_labels_for_selects_labeled_rows():
    manifest = LabelManifest(rows=(("a", "s1", None), ("c", "s2", None), ("d", None, "g")))
    labels = labels_for(manifest, ("a", "b", "c", "d"), "style")
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, -1, 1, -1]


def test_labels_for_unknown_column():
    manifest = LabelManifest(rows=(("a", "s1", None),))
    with pytest.raises(ConfigError):
        labels_for(manifest, ("a",), "era")


# ---------------------------------------------------------------------------
# cluster assignments


def test_assignments_roundtrip_with_soft_rows(tmp_path):
    q = np.array([[0.9, 0.1], [0.25, 0.75]])
    a = ClusterAssignments(ids=("a", "b"), hard=np.array([0, 1]), q=q)
    path = str(tmp_path / "assign.csv")
    write_assignments(a, path)
    back = read_assignments(path)
    assert back.ids == a.ids
    assert np.array_equal(back.hard, a.hard)
    assert back.q.tobytes() == q.tobytes()


def test_assignments_roundtrip_hard_only(tmp_path):
    a = ClusterAssignments(ids=("a", "b", "c"), hard=np.array([2, 0, 1]))
    path = str(tmp_path / "assign.csv")
    write_assignments(a, path)
    back = read_assignments(path)
    assert back.q is None
    assert np.array_equal(back.hard, a.hard)


def test_assignments_reject_bad_row_sum():
    q = np.array([[0.6, 0.6]])
    with pytest.raises(DataError, match="row 0"):
        ClusterAssignments(ids=("a",), hard=np.array([0]), q=q)


def test_assignments_reject_label_outside_width():
    q = np.array([[1.0, 0.0]])
    with pytest.raises(DataError, match="exceeds"):
        ClusterAssignments(ids=("a",), hard=np.array([2]), q=q)


def test_assignments_reject_negative_soft_value():
    q = np.array([[1.5, -0.5]])
    with pytest.raises(DataError, match="non-negative"):
        ClusterAssignments(ids=("a",), hard=np.array([0]), q=q)


def test_read_assignments_checks_q_column_names(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,cluster,q_1\na,0,1.0\n")
    with pytest.raises(FormatError, match="q_1"):
        read_assignments(str(path))


def test_read_assignments_rejects_label_beyond_int64(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,cluster\na,99999999999999999999\n")
    with pytest.raises(DataError, match="64-bit"):
        read_assignments(str(path))


# ---------------------------------------------------------------------------
# stratified sampling


def _labeled_matrix(counts):
    """A matrix whose rows are grouped by stratum, ids ``<stratum><row>``, and
    the stratum of each row."""
    strata = [cls for cls, count in counts.items() for _ in range(count)]
    rows = [[float(r), float(r) + 0.5] for r in range(len(strata))]
    ids = tuple(f"{cls}{r}" for r, cls in enumerate(strata))
    return _matrix(np.array(rows), ids=ids), strata


def test_stratified_counts_per_class():
    m, labels = _labeled_matrix({"a": 60, "b": 40})
    out = stratified_sample(m, labels, 0.5, seed=3)
    got = {"a": 0, "b": 0}
    for i in out.ids:
        got[labels[m.ids.index(i)]] += 1
    assert got == {"a": 30, "b": 20}


def test_stratified_rounds_half_up():
    m, labels = _labeled_matrix({"a": 5})
    out = stratified_sample(m, labels, 0.5, seed=0)
    # 5 * 0.5 = 2.5 rounds up to 3
    assert out.n == 3


def test_stratified_keeps_original_row_order():
    m, labels = _labeled_matrix({"a": 30, "b": 30})
    out = stratified_sample(m, labels, 0.4, seed=9)
    positions = [m.ids.index(i) for i in out.ids]
    assert positions == sorted(positions)


def test_stratified_full_fraction_is_identity():
    m, labels = _labeled_matrix({"a": 7, "b": 3})
    out = stratified_sample(m, labels, 1.0, seed=123)
    assert out.ids == m.ids
    assert np.array_equal(out.values, m.values)


def test_stratified_deterministic_and_seed_sensitive():
    m, labels = _labeled_matrix({"a": 50, "b": 50})
    first = stratified_sample(m, labels, 0.3, seed=1)
    again = stratified_sample(m, labels, 0.3, seed=1)
    other = stratified_sample(m, labels, 0.3, seed=2)
    assert first.ids == again.ids
    assert first.ids != other.ids


def test_stratified_strata_of_wrong_length_rejected():
    # One stratum per row: a missing or extra one is an error, never a shift.
    m, labels = _labeled_matrix({"a": 4})
    for strata in (labels[:-1], labels + ["a"], np.array([labels])):
        with pytest.raises(DataError, match="expected 4 strata"):
            stratified_sample(m, strata, 0.5, seed=0)


def test_stratified_strata_draw_in_string_order():
    # Strata draw in the sorted order of their str keys, so integer strata
    # 10 and 11 come before 2; xy.csv bytes depend on that order.
    counts = {s: 3 + s for s in range(12)}
    m, strata = _labeled_matrix(counts)
    by_name = {s: "abcdefghijkl"[rank] for rank, s in enumerate(sorted(counts, key=str))}
    as_names = [by_name[s] for s in strata]
    for seed in range(5):
        out = stratified_sample(m, np.array(strata), 0.5, seed=seed)
        assert out.ids == stratified_sample(m, as_names, 0.5, seed=seed).ids
        assert out.ids == stratified_sample(m, [str(s) for s in strata], 0.5, seed=seed).ids


def test_stratified_bad_fraction():
    m, labels = _labeled_matrix({"a": 4})
    for fraction in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            stratified_sample(m, labels, fraction, seed=0)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
def test_stratified_subset_property(seed, fraction):
    m, labels = _labeled_matrix({"a": 11, "b": 6, "c": 2})
    out = stratified_sample(m, labels, fraction, seed=seed)
    index = {i: r for r, i in enumerate(m.ids)}
    for i, row in zip(out.ids, out.values):
        assert np.array_equal(row, m.values[index[i]])
    assert len(set(out.ids)) == out.n


# ---------------------------------------------------------------------------
# CSV writers against their frozen per-cell copies

_QUOTED_IDS = ("a,b", 'say "hi"', "\u00e9")
_EDGE_VALUES = np.array(
    [
        [-0.0, 5e-324, 1e308, 0.1, 1.0],
        [1.0, 0.1, 1e308, 5e-324, -0.0],
        [0.1, -1e308, 1.0, 0.0, 2.5],
    ]
)
_EDGE_Q = np.array([[1.0, -0.0, 5e-324], [0.1, 0.9, 0.0], [0.0, 0.1, 0.9]])


def _same_bytes(tmp_path, write, frozen):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write(str(ours))
    frozen(str(theirs))
    assert ours.read_bytes() == theirs.read_bytes()


def test_write_features_csv_bytes_match_frozen(tmp_path):
    m = _matrix(_EDGE_VALUES, ids=_QUOTED_IDS)
    _same_bytes(
        tmp_path,
        lambda p: write_features(m, p, fmt="csv"),
        lambda p: write_features_csv_by_cell(m, p),
    )


@pytest.mark.parametrize("soft", [True, False])
def test_write_assignments_bytes_match_frozen(tmp_path, soft):
    a = ClusterAssignments(ids=_QUOTED_IDS, hard=np.array([0, 1, 2]), q=_EDGE_Q if soft else None)
    _same_bytes(
        tmp_path, lambda p: write_assignments(a, p), lambda p: write_assignments_by_cell(a, p)
    )


# Integer coordinates are written as floats, "1.0" and not "1", as float(v) wrote them.
_INT_VALUES = np.array([[1, -2, 0], [3, 4, 5], [-7, 8, 9]])


@pytest.mark.parametrize("coords", [_EDGE_VALUES, _INT_VALUES], ids=["f64", "int"])
@pytest.mark.parametrize("pca_style", [False, True])
def test_write_xy_bytes_match_frozen(tmp_path, coords, pca_style):
    coords = coords if pca_style else coords[:, :2]
    _same_bytes(
        tmp_path,
        lambda p: write_xy(p, _QUOTED_IDS, coords, pca_style),
        lambda p: write_xy_by_cell(p, _QUOTED_IDS, coords, pca_style),
    )


# The readers give back what the writers wrote: ids that need CSV quoting,
# and every value bit for bit.


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("soft", [True, False])
def test_assignments_with_quoted_ids_round_trip(tmp_path, soft):
    path = str(tmp_path / "a.csv")
    write_assignments(
        ClusterAssignments(ids=_QUOTED_IDS, hard=np.array([0, 1, 2]), q=_EDGE_Q if soft else None),
        path,
    )
    back = read_assignments(path)
    assert back.ids == _QUOTED_IDS
    assert back.hard.tolist() == [0, 1, 2]
    assert _bits(back.q) == _bits(_EDGE_Q) if soft else back.q is None


@pytest.mark.parametrize("pca_style", [False, True])
def test_xy_with_quoted_ids_round_trips(tmp_path, pca_style):
    path = str(tmp_path / "xy.csv")
    write_xy(path, _QUOTED_IDS, _EDGE_VALUES if pca_style else _EDGE_VALUES[:, :2], pca_style)
    ids, coords = read_xy(path)
    assert ids == list(_QUOTED_IDS)
    assert _bits(coords) == _bits(_EDGE_VALUES[:, :2])
