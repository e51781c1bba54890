import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpnn.csvio import FormatError, read_csv, write_csv
from crpnn.datagen import DatasetFormatError, _numeric_block, _parse_rows, read_dataset_csv
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


def test_csv_module_errors_raise_the_callers_class_with_the_line():
    # a lone carriage return in a row, or a cell over the field limit, is an
    # error of the csv module itself
    for reader, error, data in [
        (read_dataset_csv, DatasetFormatError, b"x1,y1\n1,2\r3,4\n"),
        (read_dataset_csv, DatasetFormatError, b"x1,y1\r1,2\n"),
        (read_dataset_csv, DatasetFormatError, b"x1,y1\n1,2\n" + b"1" * 140_000 + b",2\n"),
        (import_spectrum, SpectrumFormatError, b"e_1,output,coefficient\n1,0,2.0\n0,0,1.0\r\"\n"),
    ]:
        with pytest.raises(error, match="malformed CSV") as info:
            reader(data)
        assert str(info.value).startswith(f"line {info.value.line}: ")
        assert info.value.line == data.count(b"\n")


HEADERS = ["x1,y1", "x1,x2,y1,y2", "e_1,output,coefficient", "e_1,e_2,output,coefficient"]
BODY_CHARS = "0123456789.,-+eE_xyinfa \t\"'\r\n\x00"
CSV_TEXTS = st.one_of(
    st.text(),
    st.binary(),
    st.builds("{}\n{}".format, st.sampled_from(HEADERS), st.text(alphabet=BODY_CHARS)),
)


@pytest.mark.parametrize(
    "reader, error",
    [(read_dataset_csv, DatasetFormatError), (import_spectrum, SpectrumFormatError)],
    ids=["dataset", "spectrum"],
)
@settings(max_examples=300, deadline=None)
@given(data=CSV_TEXTS)
def test_any_text_parses_or_raises_the_readers_format_error(reader, error, data):
    try:
        reader(data)
    except error:
        pass


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


# The one-pass numpy parse of a dataset body must agree bit for bit with the
# cell-by-cell row parser wherever it accepts a file, and decline every file
# the row parser rejects, so that the row parser's error is the one raised.


def row_parser_block(text):
    _, rows = read_csv(text, DatasetFormatError)
    return _parse_rows(rows)


FINITE_EDGES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-5, 0.1, 1e16])
FINITE_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), FINITE_EDGES)
FORMATS = st.sampled_from([repr, "{:.17g}".format, "{:.6e}".format, "{:+.3f}".format])


@st.composite
def well_formed_datasets(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(FINITE_CELLS, min_size=n + m, max_size=n + m),
                         min_size=1, max_size=12))
    fmt = draw(FORMATS)
    lines = [",".join([f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(m)])]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 2)))  # blank lines
        lines.append(",".join(fmt(v) for v in row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text, n + m


@given(well_formed_datasets())
def test_numpy_pass_matches_the_row_parser_bit_for_bit(case):
    text, width = case
    fast = _numeric_block(text, width)
    slow = row_parser_block(text)
    assert fast is not None
    assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()
    ds = read_dataset_csv(text.encode("utf-8"))
    both = np.concatenate((ds.inputs, ds.targets)).T
    assert both.tobytes() == slow.tobytes()


MALFORMED = [
    (b"x1,y1\n1,2\n3#c,4\n", 3, "non-numeric cell: could not convert string to float: '3#c'"),
    (b"x1,y1\n1,2\n#1,4\n", 3, "non-numeric cell: could not convert string to float: '#1'"),
    (b"x1,y1\nnan,1\n", 2, "non-finite value"),
    (b"x1,y1\n1,2\n1,inf\n", 3, "non-finite value"),
    (b"x1,y1\n-Infinity,1\n", 2, "non-finite value"),
    (b"x1,y1\n1e400,1\n", 2, "non-finite value"),
    (b"x1,x2,y1\n1,2,3\n1,2\n", 3, "expected 3 cells, got 2"),
    (b"x1,y1\n1,2,3\n4,5,6\n", 2, "expected 2 cells, got 3"),
    (b"x1,y1\n", 2, "dataset has a header but no samples"),
    (b"x1,y1\r\n\r\n\n", 2, "dataset has a header but no samples"),
    (b"x1,y1\n1, \n", 2, "non-numeric cell: could not convert string to float: ' '"),
    (b"x1,y1\n1,2\n \n", 3, "expected 2 cells, got 1"),
    (b"x1,y1\n1,\n", 2, "non-numeric cell: could not convert string to float: ''"),
]


@pytest.mark.parametrize("data, line, message", MALFORMED)
def test_malformed_bodies_raise_the_row_parsers_error(data, line, message):
    text = data.decode("utf-8")
    width = len(text.splitlines()[0].split(","))
    assert _numeric_block(text, width) is None
    with pytest.raises(DatasetFormatError) as slow:
        row_parser_block(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetFormatError) as info:
            read_dataset_csv(data)
    assert caught == []
    assert (str(info.value), info.value.line) == (str(slow.value), slow.value.line)
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)
