import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefree_bandit import environments
from scalefree_bandit.environments import (
    LossStream,
    _read_rows,
    affine,
    load_csv,
    piecewise_stationary,
    scripted,
    write_csv,
)
from scalefree_bandit.reference import best_fixed_arm, best_switching_sequence
from scalefree_bandit.rng import make_generator


class TestPiecewise:
    def test_zero_noise_gives_constant_columns(self):
        stream = piecewise_stationary(2, 6, [(6, [0.0, 1.0])], 0.0, seed=1)
        assert np.array_equal(stream.matrix, np.tile([0.0, 1.0], (6, 1)))

    def test_same_seed_same_matrix(self):
        args = (3, 40, [(25, [0.1, 0.5, 0.9]), (15, [0.9, 0.5, 0.1])], 0.3)
        a = piecewise_stationary(*args, seed=7)
        b = piecewise_stationary(*args, seed=7)
        assert np.array_equal(a.matrix, b.matrix)
        c = piecewise_stationary(*args, seed=8)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            piecewise_stationary(2, 10, [(4, [0.0, 1.0]), (4, [1.0, 0.0])], 0.0, seed=0)

    def test_wrong_mean_vector_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            piecewise_stationary(3, 4, [(4, [0.0, 1.0])], 0.0, seed=0)

    def test_noise_stays_inside_band(self):
        stream = piecewise_stationary(2, 500, [(500, [0.5, 0.5])], 0.2, seed=3)
        assert stream.matrix.min() >= 0.4 and stream.matrix.max() <= 0.6

    @pytest.mark.parametrize("width", [-0.1, np.nan, np.inf])
    def test_bad_noise_width_rejected(self, width):
        with pytest.raises(ValueError, match="noise_width"):
            piecewise_stationary(2, 4, [(4, [0.0, 1.0])], width, seed=0)

    def test_switching_oracle_beats_fixed_on_swapped_segments(self):
        stream = piecewise_stationary(
            2, 100, [(50, [0.0, 1.0]), (50, [1.0, 0.0])], 0.0, seed=0
        )
        _, fixed_loss = best_fixed_arm(stream)
        _, switch_loss = best_switching_sequence(stream, 1)
        assert switch_loss < fixed_loss
        assert switch_loss == 0.0 and fixed_loss == 50.0


def _two_segments(n_arms, horizon):
    """Random means for the first third of the rounds and for the rest (one segment at T=1)."""
    means = np.random.default_rng(n_arms).random((2, n_arms))
    first = max(1, horizon // 3)
    return [(first, means[0])] + ([(horizon - first, means[1])] if horizon > first else [])


class TestNoiseBlocks:
    """The noise is added a block of rows at a time, and only the matrix is full-size."""

    # 256 arms: 256-row blocks, crossed at 255/256/257/513; 7 arms: 9362-row blocks;
    # 70000 arms: more than one block's values in a row, so each block is one row
    @pytest.mark.parametrize("n_arms,horizon,seed", [
        (256, 1, 0), (256, 255, 1), (256, 256, 2), (256, 257, 3), (256, 513, 4),
        (7, 1001, 5), (7, 20_000, 6), (70_000, 3, 7),
    ])
    def test_blocked_noise_has_the_one_shot_bytes(self, n_arms, horizon, seed):
        segments = _two_segments(n_arms, horizon)
        width = 0.3
        means = np.repeat(np.stack([m for _, m in segments]), [n for n, _ in segments], axis=0)
        expected = means + make_generator(seed).uniform(-width / 2, width / 2,
                                                        size=(horizon, n_arms))
        stream = piecewise_stationary(n_arms, horizon, segments, width, seed)
        assert stream.matrix.tobytes() == expected.tobytes()

    def test_peak_memory_is_the_matrix_plus_one_block(self):
        segments = _two_segments(256, 20_000)
        tracemalloc.start()
        try:
            stream = piecewise_stationary(256, 20_000, segments, 0.2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stream.matrix.nbytes + 2_000_000, (peak, stream.matrix.nbytes)


class TestScripted:
    def test_zero_matrix(self):
        stream = scripted(np.zeros((1, 3)))
        assert stream.range_width() == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scripted([[0.0, np.inf]])
        with pytest.raises(ValueError):
            scripted([[0.0, np.nan]])

    @pytest.mark.parametrize("cell", [(0, 0), (-1, -1)], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_single_nonfinite_cell_rejected(self, bad, cell):
        matrix = np.ones((5, 3))
        matrix[cell] = bad
        with pytest.raises(ValueError, match="finite"):
            LossStream(matrix)

    def test_extreme_finite_values_accepted(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
        matrix = np.array([values, values[::-1]])
        assert LossStream(matrix).matrix.tobytes() == matrix.tobytes()

    def test_alternating_two_arm(self):
        horizon = 10
        matrix = np.tile([[0.0, 1.0], [1.0, 0.0]], (horizon // 2, 1))
        stream = scripted(matrix)
        arm, loss = best_fixed_arm(stream)
        assert arm == 0 and loss == horizon / 2

    def test_matrix_is_immutable(self):
        stream = scripted(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            stream.matrix[0, 0] = 1.0

    def test_needs_two_arms(self):
        with pytest.raises(ValueError):
            scripted(np.zeros((3, 1)))


class TestAffine:
    def test_identity(self):
        base = scripted([[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(affine(base, 1.0, 0.0).matrix, base.matrix)

    def test_range_scales(self):
        base = scripted([[0.0, 1.0], [2.0, 3.0]])
        wrapped = affine(base, 2.0, 5.0)
        assert wrapped.range_width() == 2.0 * base.range_width()
        assert wrapped.loss_range() == (5.0, 11.0)

    def test_power_of_two_scaling(self):
        base = scripted([[0.25, 0.75], [0.5, 0.125]])
        assert np.array_equal(affine(base, 2.0 ** 10, 0.0).matrix, base.matrix * 1024.0)

    def test_rejects_nonpositive_scale(self):
        base = scripted([[0.0, 1.0]])
        for a in (0.0, -2.0):
            with pytest.raises(ValueError):
                affine(base, a, 0.0)

    def test_rejects_nonfinite_coefficients(self):
        base = scripted([[0.0, 1.0]])
        with pytest.raises(ValueError):
            affine(base, 1.0, np.nan)
        with pytest.raises(ValueError):
            affine(base, np.inf, 0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = scripted(rng.normal(size=(5, 3)))
        path = tmp_path / "stream.csv"
        write_csv(stream, path)
        again = load_csv(path)
        assert np.array_equal(stream.matrix, again.matrix)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,arm,loss\n0,1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_zero_based_arm_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,arm,loss\n0,0,0.5\n")
        with pytest.raises(ValueError, match="1-based"):
            load_csv(path)

    def test_missing_entry_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,arm,loss\n0,1,0.5\n0,2,0.25\n1,1,0.5\n")
        with pytest.raises(ValueError, match="missing"):
            load_csv(path)

    def test_far_round_reported_missing_without_allocating(self, tmp_path):
        # a (10^12 + 1) x 2 matrix would need 14.6 TiB
        path = tmp_path / "far.csv"
        path.write_text("t,arm,loss\n0,1,0.5\n1000000000000,2,0.25\n")
        with pytest.raises(ValueError, match="far.csv: missing loss for round 0, arm 2$"):
            load_csv(path)

    def test_first_missing_in_row_major_order(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("t,arm,loss\n2,1,0.5\n0,2,0.5\n0,1,0.5\n1,1,0.5\n2,2,0.5\n")
        with pytest.raises(ValueError, match="gaps.csv: missing loss for round 1, arm 2$"):
            load_csv(path)

    @pytest.mark.parametrize("row,name", [("9223372036854775808,1,0.5", "round"),
                                          ("0,9223372036854775808,0.5", "arm")])
    def test_index_past_int64_names_its_line(self, tmp_path, row, name):
        path = tmp_path / "huge.csv"
        path.write_text(f"t,arm,loss\n0,1,0.5\n{row}\n")
        message = f"huge.csv:3: {name} 9223372036854775808 does not fit in int64$"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,arm,loss\n0,1,0.5\n0,1,0.25\n0,2,0.1\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_loss_names_its_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"t,arm,loss\n0,1,0.5\n0,2,{value}\n1,1,0.5\n1,2,0.5\n")
        message = f"nonfinite.csv:3: loss must be finite, got {value}$"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_first_fault_in_file_order(self, tmp_path):
        # the duplicate on line 4 comes before the negative round on line 5
        path = tmp_path / "two_faults.csv"
        path.write_text("t,arm,loss\n0,1,0.5\n0,2,0.5\n0,1,0.25\n-1,2,0.1\n")
        message = "two_faults.csv:4: duplicate entry for round 0, arm 1"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_first_duplicate_named(self, tmp_path):
        path = tmp_path / "dups.csv"
        path.write_text("t,arm,loss\n0,2,0.5\n1,1,0.1\n1,2,0.2\n0,1,0.3\n1,1,0.4\n0,2,0.6\n")
        with pytest.raises(ValueError, match="dups.csv:6: duplicate entry for round 1, arm 1"):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,arm,loss\n0,1,0.5\n\n1,2,0.75\n0,2,0.25\n1,1,1.0\n\n")
        assert np.array_equal(load_csv(path).matrix, [[0.5, 0.25], [1.0, 0.75]])

    def test_negative_round_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("t,arm,loss\n-1,1,0.5\n")
        with pytest.raises(ValueError, match="negative round"):
            load_csv(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,arm,loss\n0,1\n")
        with pytest.raises(ValueError, match="3 fields"):
            load_csv(path)

    def test_empty_stream_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,arm,loss\n")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            scripted(np.zeros(4))


def _outcome(read, path):
    """The matrix bytes a reader returns, or the text of its ValueError."""
    try:
        return read(path).matrix.tobytes()
    except ValueError as exc:
        return str(exc)


def _padded(draw, text):
    space = st.sampled_from(["", " ", "\t", "  "])
    return draw(space) + text + draw(space)


def _index_text(draw, value):
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return _padded(draw, sign + "0" * draw(st.integers(0, 2)) + str(abs(value)))


@st.composite
def csv_texts(draw):
    """A stream file: shuffled rows of a small grid, sometimes one cell dropped,
    repeated or out of range, in varied formatting and line layout."""
    n_rounds, n_arms = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cells = draw(st.permutations([(t, m + 1) for t in range(n_rounds) for m in range(n_arms)]))
    edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "repeat for the last",
                                 "negative round", "arm 0"]))
    if edit == "drop" and len(cells) > 1:
        cells = cells[1:]
    elif edit == "repeat":
        cells = cells + [cells[0]]
    elif edit == "repeat for the last":  # as many rows as cells, one cell missing
        cells = cells[:-1] + [cells[0]]
    elif edit == "negative round":
        cells = [(-1, cells[0][1])] + cells[1:]
    elif edit == "arm 0":
        cells = [(cells[0][0], 0)] + cells[1:]
    losses = st.one_of(
        st.floats().map(repr),
        st.sampled_from(["-0.0", "5e-324", "2.2250738585072014e-308", "1e-400", "1e400",
                         "-1.5E+3", ".5", "7."]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["t,arm,loss"]
    for t, arm in cells:
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join([_index_text(draw, t), _index_text(draw, arm),
                               _padded(draw, draw(losses))]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


class TestCsvParity:
    """load_csv parses a clean file in one pass; every outcome equals the row reader's."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_matches_the_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("parity") / "stream.csv"
        path.write_bytes(text.encode())
        assert _outcome(load_csv, path) == _outcome(_read_rows, path)

    @pytest.mark.parametrize("text,expected", [
        pytest.param('t,arm,loss\n0,1,"0.5"\n"0",2,0.25\n', [[0.5, 0.25]], id="quoted"),
        pytest.param("t,arm,loss\n0,1,1_0.5\n0,2,1\n", [[10.5, 1.0]], id="underscore"),
        pytest.param("t,arm,loss\r0,1,0.5\r0,2,0.25\r", [[0.5, 0.25]], id="lone_cr"),
        pytest.param("t,arm,loss\n0,1,0.5\n  \n0,2,0.25\n", "csv:3: expected 3 fields, got 1",
                     id="whitespace_line"),
        pytest.param("t,arm,loss\n", "csv: empty stream", id="header_only"),
        # Python's int refuses more digits than its limit; numpy reads this round as 0
        pytest.param("t,arm,loss\n0,1,0.5\n" + "0" * 5000 + ",2,0.25\n",
                     "csv:3: Exceeds the limit", id="long_digits"),
        # csv refuses a field over its size limit; an earlier duplicate still comes first
        pytest.param("t,arm,loss\n0,1,0.5\n0,2," + "1" * (csv.field_size_limit() + 1) + "\n",
                     "csv:3: field larger than field limit", id="long_field"),
        pytest.param("t,arm,loss\n0,1,0.5\n0,1,0.5\n0,2," + "1" * (csv.field_size_limit() + 1),
                     "csv:3: duplicate entry for round 0, arm 1", id="duplicate_then_long_field"),
    ])
    def test_inputs_only_the_row_reader_reads(self, tmp_path, text, expected):
        path = tmp_path / "stream.csv"
        path.write_bytes(text.encode())
        outcome = _outcome(load_csv, path)
        assert outcome == _outcome(_read_rows, path)
        if isinstance(expected, str):
            assert expected in outcome
        else:
            assert outcome == np.array(expected).tobytes()

    def test_clean_file_skips_the_row_reader(self, tmp_path, monkeypatch):
        stream = scripted(np.random.default_rng(1).normal(size=(300, 4)))
        path = tmp_path / "clean.csv"
        write_csv(stream, path)

        def fail(path):
            raise AssertionError("row reader used on a clean file")

        monkeypatch.setattr(environments, "_read_rows", fail)
        assert load_csv(path).matrix.tobytes() == stream.matrix.tobytes()


def test_loss_lookup_is_zero_based_rounds():
    stream = scripted([[1.0, 2.0], [3.0, 4.0]])
    assert stream.loss(0, 1) == 2.0
    assert stream.loss(1, 0) == 3.0
    assert isinstance(stream, LossStream)
