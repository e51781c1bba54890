import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crpnn.csvio import FormatError, read_csv, write_csv
from crpnn.datagen import DatasetFormatError, read_dataset_csv
from crpnn.spectrum import SpectrumFormatError, import_spectrum


def reference_csv(header, rows):
    """The stdlib writer the codec must match: `\\n` line ends, repr floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 0.1,
     float("inf"), float("-inf"), float("nan")]
)
CELLS = st.one_of(st.integers(), st.floats(), EDGE_FLOATS)


@given(width=st.integers(1, 6), data=st.data())
def test_write_csv_matches_the_stdlib_writer(width, data):
    header = [f"c{i}" for i in range(width)]
    rows = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8))
    assert write_csv(header, rows) == reference_csv(header, rows)


def test_read_csv_skips_blank_lines_and_counts_them():
    header, rows = read_csv(b"a,b\n\n1,2\n\n3,4\n", FormatError)
    assert header == ["a", "b"]
    assert list(rows) == [(3, ["1", "2"]), (5, ["3", "4"])]


def test_read_csv_errors_use_the_callers_class():
    with pytest.raises(DatasetFormatError, match="line 1: missing header") as info:
        read_csv(b"", DatasetFormatError)
    assert info.value.line == 1
    with pytest.raises(SpectrumFormatError, match="not valid UTF-8") as info:
        read_csv(b"\xff\n", SpectrumFormatError)
    assert info.value.line is None
    _, rows = read_csv(b"a,b\n1\n", FormatError)
    with pytest.raises(FormatError, match="line 2: expected 2 cells, got 1"):
        list(rows)


def test_header_error_comes_before_row_error():
    with pytest.raises(DatasetFormatError) as info:
        read_dataset_csv(b"a,b\n1,2,3\n")
    assert info.value.line == 1
    with pytest.raises(SpectrumFormatError) as info:
        import_spectrum(b"e_1,coefficient\n1,2,3,4\n")
    assert info.value.line == 1


def test_quoted_and_underscored_numbers_still_parse():
    ds = read_dataset_csv(b'x1,y1\n"1.5",1_0\n')
    np.testing.assert_array_equal(ds.inputs, [[1.5]])
    np.testing.assert_array_equal(ds.targets, [[10.0]])
    s = import_spectrum(b'e_1,output,coefficient\n"2",0,"0.5"\n')
    assert s.terms == ({(2,): 0.5},)
