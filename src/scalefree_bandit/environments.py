"""Loss-sequence generators for experiments.

A :class:`LossStream` holds the full (horizon x arms) loss matrix. The
experiment harness may inspect all of it (e.g. to find the best competing
sequence or the realized loss range); the learner is only ever shown the
entry it selected. Streams are immutable once built.

CSV format for scripted streams: header ``t,arm,loss`` with 0-based round
``t`` and 1-based ``arm``; every (round, arm) pair must appear exactly once.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array

import numpy as np

from .rng import make_generator

_INT64_MAX = np.iinfo(np.int64).max
# Noise values drawn per block (512 KB): the matrix is the only (T, M) array a stream builds.
_NOISE_BLOCK_VALUES = 65536


class LossStream:
    """Immutable loss matrix."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("loss matrix must be 2-D (rounds x arms)")
        if matrix.shape[0] < 1 or matrix.shape[1] < 2:
            raise ValueError(f"need at least 1 round and 2 arms, got shape {matrix.shape}")
        # NaN propagates through both reductions and +-inf is one of them: no (T, M) mask
        if not (math.isfinite(matrix.min()) and math.isfinite(matrix.max())):
            raise ValueError("losses must be finite")
        matrix.setflags(write=False)
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def horizon(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def n_arms(self) -> int:
        return int(self._matrix.shape[1])

    def loss(self, t: int, arm: int) -> float:
        """Entry for 0-based round t and 0-based arm."""
        return float(self._matrix[t, arm])

    def loss_range(self) -> tuple[float, float]:
        return float(self._matrix.min()), float(self._matrix.max())

    def range_width(self) -> float:
        lo, hi = self.loss_range()
        return hi - lo


def scripted(matrix) -> LossStream:
    """Wrap an explicit loss matrix verbatim."""
    return LossStream(np.array(matrix, dtype=np.float64))


def piecewise_stationary(
    n_arms: int,
    horizon: int,
    segments: list[tuple[int, list[float]]],
    noise_width: float,
    seed: int,
) -> LossStream:
    """Per-arm means that jump between segments, plus bounded uniform noise.

    Each segment is (length, per-arm mean vector); lengths must sum to the
    horizon. Noise is uniform on [-noise_width/2, +noise_width/2] so the
    true loss range stays finite and exactly computable. Deterministic for
    a given seed.

    The noise is drawn and added a block of rows at a time, in row-major
    order from one generator. Successive Philox draws continue one stream,
    so the matrix has the bits of a single ``(horizon, n_arms)`` draw.
    """
    if not 0 <= noise_width < math.inf:
        raise ValueError(f"noise_width must be finite and >= 0, got {noise_width}")
    lengths = [int(length) for length, _ in segments]
    if any(length < 1 for length in lengths):
        raise ValueError("segment lengths must be >= 1")
    if sum(lengths) != horizon:
        raise ValueError(f"segment lengths {lengths} sum to {sum(lengths)}, expected horizon {horizon}")
    stacked = []
    for _, means in segments:
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (n_arms,):
            raise ValueError(f"segment mean vector has shape {means.shape}, expected ({n_arms},)")
        stacked.append(means)
    matrix = np.repeat(np.stack(stacked), lengths, axis=0)
    if noise_width > 0:
        rng = make_generator(seed)
        rows = max(1, _NOISE_BLOCK_VALUES // n_arms)
        for lo in range(0, horizon, rows):
            block = matrix[lo:lo + rows]
            block += rng.uniform(-noise_width / 2, noise_width / 2, size=block.shape)
    return LossStream(matrix)


def affine(base: LossStream, a: float, b: float) -> LossStream:
    """Copy of `base` with every loss mapped to a*loss + b (a > 0)."""
    a = float(a)
    b = float(b)
    if not a > 0:
        raise ValueError(f"scale must be positive, got {a}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("affine coefficients must be finite")
    return LossStream(a * base.matrix + b)


def _first_duplicate(rounds: array, arms: array) -> int | None:
    """Index of the first row whose (round, arm) pair an earlier row holds."""
    t = np.frombuffer(rounds, dtype=np.int64)
    m = np.frombuffer(arms, dtype=np.int64)
    order = np.lexsort((np.arange(t.size), m, t))
    t, m = t[order], m[order]
    repeats = order[1:][(t[1:] == t[:-1]) & (m[1:] == m[:-1])]
    return int(repeats.min()) if repeats.size else None


def _first_missing(t: np.ndarray, m: np.ndarray, shape: tuple[int, int]) -> tuple[int, int] | None:
    """First (round, arm) of the `shape` grid, in row-major order, that no row holds.

    The rows hold no duplicates, so they cover the grid exactly when their
    count is its size; otherwise the first sorted key that differs from the
    grid cell of the same rank marks the gap. Nothing of the grid's size is
    allocated.
    """
    n_rounds, n_arms = shape
    if t.size == n_rounds * n_arms:
        return None
    order = np.lexsort((m, t))
    cell = np.arange(t.size)
    differs = (t[order] != cell // n_arms) | (m[order] != cell % n_arms)
    k = int(np.argmax(differs)) if differs.any() else t.size
    return k // n_arms, k % n_arms


_ROW_DTYPE = np.dtype([("t", np.int64), ("arm", np.int64), ("loss", np.float64)])
# No field of a shorter line can exceed Python's int digit limit (640 at its lowest).
_LINE_LIMIT = 640


def _longest_line(path) -> int:
    """Length in bytes of the file's longest line, counting its line end."""
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    return int(np.diff(ends, prepend=-1, append=data.size).max())


def _parse_clean(path) -> np.ndarray | None:
    """The rows of a file that numpy parses in one pass, else None.

    None unless the first line is exactly the header and every later line is
    blank or three fields that numpy reads as two int64 and a float64. Such
    fields are a subset of what Python's int and float accept, with the same
    values. A line too long for csv's field size limit or int's digit limit
    gives None as well.
    """
    if _longest_line(path) > min(_LINE_LIMIT, csv.field_size_limit()):
        return None
    with open(path) as fh:
        if fh.readline() != "t,arm,loss\n":
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data", among others
                return np.loadtxt(fh, delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None


def load_csv(path) -> LossStream:
    """Read a scripted stream (header t,arm,loss; 0-based t, 1-based arm).

    A clean file is parsed in one numpy pass and checked as whole arrays.
    Any file that numpy rejects or that fails a check is read again row by
    row (:func:`_read_rows`), whose error names the file and the line of the
    first fault in file order.
    """
    rows = _parse_clean(path)
    if rows is None:
        return _read_rows(path)
    t, m, losses = rows["t"], rows["arm"], rows["loss"]
    if not ((t >= 0).all() and (m >= 1).all() and np.isfinite(losses).all()):
        return _read_rows(path)
    m -= 1
    shape = (int(t.max()) + 1, int(m.max()) + 1)
    if t.size != shape[0] * shape[1]:  # a cell missing or repeated; the grid is not allocated
        return _read_rows(path)
    matrix = np.full(shape, np.nan)  # no larger than the rows
    matrix[t, m] = losses
    del rows, t, m, losses
    if np.isnan(matrix).any():  # a cell repeated, so another one missing
        return _read_rows(path)
    return LossStream(matrix)


def _read_rows(path) -> LossStream:
    """:func:`load_csv` one csv row at a time; an error names the file and line."""
    rounds, arms, losses, lines = array("q"), array("q"), array("d"), array("q")

    def first_fault(line_no=None, message=None) -> ValueError | None:
        """A duplicate among the rows read so far, else the fault given, if any."""
        dup = _first_duplicate(rounds, arms)
        if dup is not None:
            line_no = lines[dup]
            message = f"duplicate entry for round {rounds[dup]}, arm {arms[dup] + 1}"
        return None if message is None else ValueError(f"{path}:{line_no}: {message}")

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["t", "arm", "loss"]:
                raise ValueError(f"expected header t,arm,loss, got {header}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise first_fault(line_no, f"expected 3 fields, got {len(row)}")
                try:
                    t, arm, loss = int(row[0]), int(row[1]), float(row[2])
                except ValueError as exc:
                    raise first_fault(line_no, str(exc)) from None
                if t < 0:
                    raise first_fault(line_no, f"negative round {t}")
                if arm < 1:
                    raise first_fault(line_no, f"arms are 1-based, got {arm}")
                if t > _INT64_MAX:
                    raise first_fault(line_no, f"round {t} does not fit in int64")
                if arm > _INT64_MAX:
                    raise first_fault(line_no, f"arm {arm} does not fit in int64")
                if not math.isfinite(loss):
                    raise first_fault(line_no, f"loss must be finite, got {loss}")
                rounds.append(t)
                arms.append(arm - 1)
                losses.append(loss)
                lines.append(line_no)
        except csv.Error as exc:  # a field over csv's size limit, among others
            raise first_fault(reader.line_num, str(exc)) from None
    if not rounds:
        raise ValueError(f"{path}: empty stream")
    error = first_fault()
    if error is not None:
        raise error
    t = np.frombuffer(rounds, dtype=np.int64)
    m = np.frombuffer(arms, dtype=np.int64)
    shape = (int(t.max()) + 1, int(m.max()) + 1)
    missing = _first_missing(t, m, shape)
    if missing is not None:
        raise ValueError(f"{path}: missing loss for round {missing[0]}, arm {missing[1] + 1}")
    matrix = np.empty(shape)
    matrix[t, m] = np.frombuffer(losses)
    return LossStream(matrix)


def write_csv(stream: LossStream, path) -> None:
    """Inverse of :func:`load_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "arm", "loss"])
        for t in range(stream.horizon):
            for m in range(stream.n_arms):
                writer.writerow([t, m + 1, repr(stream.loss(t, m))])
