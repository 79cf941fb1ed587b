"""Independent reference computations and measurements shared by the test modules."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from typing import Callable

import numpy as np

import delius
from delius.dataio import (
    ClusterAssignments,
    FeatureMatrix,
    _check_ids,
    _check_width,
    _csv_rows,
    _parse_cells,
    checked_array,
)
from delius.errors import FormatError
from delius.projection import PcaModel


def numeric_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-6
) -> np.ndarray:
    """Central finite differences of a scalar function, element by element.

    Intended for verifying analytic gradients on small problems; cost is
    two function evaluations per element.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        out[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return out


def traced_peak(call: Callable[[], object]) -> tuple[object, int]:
    """``call()`` and the most bytes tracemalloc saw it hold at once, its result included."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before


def _status_kb(field: str) -> str:
    return (f"int(next(ln for ln in open('/proc/self/status')"
            f" if ln.startswith('{field}:')).split()[1]) * 1024")


def child_memory(setup: str, call: str) -> tuple[int, int]:
    """Run ``setup`` then ``call`` in a fresh interpreter with ``delius`` importable.

    Returns the child's resident bytes after ``setup`` (``VmRSS``) and its
    high-water mark after ``call`` (``VmHWM``), both read by the child from
    ``/proc/self/status``.  A child's ``ru_maxrss`` would also count the
    address space it was forked from, the test process; tracemalloc would
    miss what BLAS and LAPACK allocate.
    """
    script = (f"{setup}\nbefore = {_status_kb('VmRSS')}\n{call}\n"
              f"print(before, {_status_kb('VmHWM')})\n")
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delius.__file__))),
        capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    before, peak = child.stdout.split()[-2:]
    return int(before), int(peak)


def pca_fit_thin_svd(points: np.ndarray, r: int) -> PcaModel:
    """Frozen copy of ``pca_fit`` before the R-factor route, without its checks.

    The components come from the thin SVD of the whole centered data.
    """
    points = np.asarray(points, dtype=np.float64)
    mean = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - mean, full_matrices=False)
    components = vt[:r].copy()
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0.0:
            row *= -1.0
    return PcaModel(mean=mean, components=components)


def encode_blocks_longhand(params, x: np.ndarray, rows: int) -> np.ndarray:
    """``autoencoder.encode`` written out longhand: each block of ``rows`` rows
    runs the chain as fresh products, bias adds and relus, and the blocks'
    codes are stacked."""
    codes = []
    for start in range(0, x.shape[0], rows):
        a = x[start : start + rows]
        for layer in params.layers:
            a = a @ layer.w.T + layer.b
            if layer.activation == "relu":
                a = np.maximum(a, 0.0)
        codes.append(a)
    return np.vstack(codes)


def distance_blocks_longhand(points: np.ndarray, shift: float = 0.0):
    """``distance.sq_distance_blocks`` written out longhand, a fresh array per block.

    Yields ``(start, rows)`` for blocks of the largest multiple of 8 rows
    (at least 8, at most n) within 512 KiB of doubles: one GEMM of
    ``[x, |x|^2 + shift, 1]`` against ``[-2x, 1, |x|^2]``, clipped at
    ``shift``, with a diagonal of ``shift``.  Both operands are C-ordered,
    as the kernel's: ``vstack`` of ``x.T`` is F-ordered, and the product's
    last bits follow the layout.
    """
    n = points.shape[0]
    sq = np.einsum("nd,nd->n", points, points)
    left = np.column_stack([points, sq + shift, np.ones(n)])
    right = np.ascontiguousarray(np.vstack([-2.0 * points.T, np.ones(n), sq]))
    step = min(max(8, (1 << 19) // (8 * n) // 8 * 8), n)
    for start in range(0, n, step):
        rows = np.maximum(left[start : start + step] @ right, shift)
        np.fill_diagonal(rows[:, start:], shift)
        yield start, rows


def distance_matrix_longhand(points: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """The n x n matrix of ``distance_blocks_longhand``'s blocks."""
    return np.vstack([rows for _, rows in distance_blocks_longhand(points, shift)])


def long_double_sq_distances(points: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Squared distances from rows ``start:stop`` to every row, from direct
    coordinate differences in extended precision."""
    x = points.astype(np.longdouble)
    diff = x[start:stop, None, :] - x[None, :, :]
    return np.einsum("ijd,ijd->ij", diff, diff)


def normal_whole_block(rng, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """Frozen copy of ``Rng.normal`` before the chunked transform.

    Every step of the Box-Muller transform runs once over the whole block
    of words, each in a new array.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    count = 1
    for dim in shape:
        count *= dim
    pairs = (count + 1) // 2
    block = rng._u64_block(2 * pairs) >> np.uint64(11)
    # u1 lies in (0, 1] so the logarithm is always defined.
    u1 = (block[0::2].astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = block[1::2].astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    draws = np.empty(2 * pairs, dtype=np.float64)
    draws[0::2] = radius * np.cos(angle)
    draws[1::2] = radius * np.sin(angle)
    return (mean + std * draws[:count]).reshape(shape)


# Frozen copies of the per-cell CSV readers, which parse every cell with
# float() or int(): the readers must give the same values, ids and errors.


def features_csv_by_cell(path: str, header: bool) -> FeatureMatrix:
    rows = _csv_rows(path, "features file")
    if header:
        next(rows, None)
    ids, values = [], []
    for r, cells in rows:
        if not ids:
            width = len(cells)
            if width < 2:
                raise FormatError(f"{path}: row {r} has no feature columns")
        _check_width(path, r, cells, width)
        ids.append(cells[0])
        values.append(_parse_cells(path, r, cells[1:], 2))
    if not ids:
        raise FormatError(f"{path}: no data rows")
    return FeatureMatrix(values=np.array(values, dtype=np.float64), ids=tuple(ids))


def assignments_by_cell(path: str) -> ClusterAssignments:
    rows = _csv_rows(path, "assignments file")
    _, header = next(rows, (0, None))
    if header is None:
        raise FormatError(f"{path}: empty file")
    if header[:2] != ["id", "cluster"]:
        raise FormatError(f"{path}: header must start with 'id,cluster'")
    q_cols = header[2:]
    for j, name in enumerate(q_cols):
        if name != f"q_{j}":
            raise FormatError(f"{path}: unexpected soft assignment column {name!r}")
    ids = []
    hard = []
    q_rows = [] if q_cols else None
    for r, cells in rows:
        _check_width(path, r, cells, len(header))
        ids.append(cells[0])
        hard += _parse_cells(path, r, cells[1:2], 2, int)
        if q_rows is not None:
            q_rows.append(_parse_cells(path, r, cells[2:], 3))
    if not ids:
        raise FormatError(f"{path}: no data rows")
    return ClusterAssignments(ids=tuple(ids), hard=hard, q=q_rows)


def xy_by_cell(path: str) -> tuple[list[str], np.ndarray]:
    rows = _csv_rows(path, "projection file")
    _, header = next(rows, (0, []))
    if header[:1] != ["id"] or len(header) < 3:
        raise FormatError(f"{path}: header must be 'id' plus at least two coordinates")
    ids, coords = [], []
    for r, cells in rows:
        _check_width(path, r, cells, len(header))
        ids.append(cells[0])
        coords.append(_parse_cells(path, r, cells[1:3], 2))
    if not ids:
        raise FormatError(f"{path}: no data rows")
    _check_ids(ids, len(ids))
    coords = np.array(coords, dtype=np.float64)
    checked_array(coords, 2, "projection coordinates")
    return ids, coords


# Frozen copies of the CSV writers, which formatted each value with
# repr(float(v)): the writers must give the same bytes.


def _csv_lines(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_features_csv_by_cell(matrix: FeatureMatrix, path: str) -> None:
    rows = ([i] + [repr(float(v)) for v in row] for i, row in zip(matrix.ids, matrix.values))
    _csv_lines(path, None, rows)


def write_assignments_by_cell(assignments: ClusterAssignments, path: str) -> None:
    header = ["id", "cluster"]
    if assignments.q is not None:
        header += [f"q_{j}" for j in range(assignments.q.shape[1])]
    rows = []
    for r in range(assignments.n):
        row = [assignments.ids[r], str(int(assignments.hard[r]))]
        if assignments.q is not None:
            row += [repr(float(v)) for v in assignments.q[r]]
        rows.append(row)
    _csv_lines(path, header, rows)


def write_xy_by_cell(path: str, ids, coords: np.ndarray, pca_style: bool) -> None:
    header = ["id"] + (
        [f"c_{j + 1}" for j in range(coords.shape[1])] if pca_style else ["x", "y"]
    )
    _csv_lines(path, header, ([i] + [repr(float(v)) for v in row] for i, row in zip(ids, coords)))
