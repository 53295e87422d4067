"""File format round-trips and parse failures."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import minpinv.matio
import oracles
from minpinv.errors import InputError
from minpinv.matio import (
    MM_HEADER,
    dump_matrix_csv,
    dump_matrix_mm,
    format_float,
    load_matrix_csv,
    load_matrix_mm,
    read_matrix,
    read_text,
    read_vector,
    write_matrix,
    write_vector,
)


def test_format_float_shortest_roundtrip():
    for value in (0.1, 1.0 / 3.0, 1e-300, 2.5e17, np.pi, -0.0):
        assert float(format_float(value)) == value
    assert format_float(0.1) == "0.1"
    assert format_float(1.0) == "1.0"


class TestCsv:
    def test_layout(self):
        text = dump_matrix_csv(np.array([[1.0, 2.0], [3.0, 0.1]]))
        lines = text.splitlines()
        assert lines[0] == "rows,cols"
        assert lines[1] == "2,2"
        assert lines[2] == "1.0,2.0"
        assert lines[3] == "3.0,0.1"

    def test_roundtrip_bit_exact(self, rng):
        a = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-200, 200, (7, 4))
        back = load_matrix_csv(dump_matrix_csv(a))
        np.testing.assert_array_equal(back, a)

    def test_header_optional(self):
        a = load_matrix_csv("2,2\n1,2\n3,4\n")
        np.testing.assert_array_equal(a, [[1.0, 2.0], [3.0, 4.0]])

    def test_scientific_notation(self):
        a = load_matrix_csv("rows,cols\n1,2\n1e-3,2.5E+4\n")
        np.testing.assert_array_equal(a, [[1e-3, 2.5e4]])

    def test_crlf_comments_and_blank_lines(self):
        text = "# made elsewhere\r\nrows,cols\r\n\r\n2,2\r\n1, 2\r\n# note\r\n3,4e0\r\n"
        np.testing.assert_array_equal(load_matrix_csv(text), [[1.0, 2.0], [3.0, 4.0]])

    def test_error_messages(self):
        with pytest.raises(InputError) as exc:
            load_matrix_csv("rows,cols\n2,2\n1,x\n3,4\n")
        assert str(exc.value) == "cannot parse number 'x' in csv input row 1"
        with pytest.raises(InputError) as exc:
            load_matrix_csv("rows,cols\n2,3\n1,2,3\n4,0x10,1d5\n")
        assert str(exc.value) == "cannot parse number '0x10' in csv input row 2"
        with pytest.raises(InputError) as exc:
            load_matrix_csv("rows,cols\n2,2\n1,2\n3,4,5\n")
        assert str(exc.value) == "csv input: row 2 has 3 entries, expected 2"
        with pytest.raises(InputError) as exc:
            load_matrix_csv("rows,cols\n1,2\n1,1e400\n")
        assert str(exc.value) == "csv input contains non-finite entries"

    @pytest.mark.parametrize("text", [
        "",
        "rows,cols\n",
        "rows,cols\n2,2\n1,2\n",          # missing row
        "rows,cols\n2,2\n1,2\n3,4\n5,6\n",  # extra row
        "rows,cols\n2,2\n1,2,3\n4,5,6\n",   # wrong width
        "rows,cols\n2,2\n1,x\n3,4\n",       # bad token
        "rows,cols\n0,2\n",                 # bad dims
        "rows,cols\n2,2\n1,inf\n3,4\n",     # non-finite
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(InputError):
            load_matrix_csv(text)


class TestMatrixMarket:
    def test_column_major_layout(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        lines = dump_matrix_mm(a).splitlines()
        assert lines[0] == "%%MatrixMarket matrix array real general"
        assert lines[1] == "2 2"
        assert [float(x) for x in lines[2:]] == [1.0, 3.0, 2.0, 4.0]

    def test_roundtrip_bit_exact(self, rng):
        a = rng.standard_normal((5, 8))
        back = load_matrix_mm(dump_matrix_mm(a))
        np.testing.assert_array_equal(back, a)

    def test_comments_allowed(self):
        text = ("%%MatrixMarket matrix array real general\n"
                "% produced elsewhere\n2 1\n1.5\n-2.5\n")
        np.testing.assert_array_equal(load_matrix_mm(text), [[1.5], [-2.5]])

    def test_crlf_comments_and_blank_lines_between_values(self):
        text = (f"{MM_HEADER}\r\n% made elsewhere\r\n\r\n2 2\r\n1.5\r\n\r\n"
                "% between values\r\n-2.5\r\n  3 \r\n\r\n4e0\r\n")
        back = load_matrix_mm(text)
        np.testing.assert_array_equal(back, [[1.5, 3.0], [-2.5, 4.0]])
        assert back.flags.c_contiguous

    def test_leading_blank_lines(self, tmp_path):
        # read_matrix sniffs the header past leading whitespace; the loader
        # must then find it there too
        text = f"\n  \n\t\n{MM_HEADER}\n2 1\n7.0\n8.0\n"
        np.testing.assert_array_equal(load_matrix_mm(text), [[7.0], [8.0]])
        path = tmp_path / "leading_blank.txt"
        path.write_text(text)
        np.testing.assert_array_equal(read_matrix(path), [[7.0], [8.0]])
        with pytest.raises(InputError) as exc:
            load_matrix_mm("\n \n")
        assert str(exc.value) == "matrixmarket input is empty"

    def test_header_sniff_matches_lstrip(self):
        # the sniff copies no text, yet skips exactly what str.lstrip() does
        for code in range(128):
            text = chr(code) * 2 + MM_HEADER
            assert bool(minpinv.matio._MM_BANNER.match(text)) == \
                text.lstrip().startswith("%%MatrixMarket"), code

    def test_error_messages(self):
        with pytest.raises(InputError) as exc:
            load_matrix_mm(f"{MM_HEADER}\n3 1\n1\nfoo\nbar\n")
        assert str(exc.value) == "cannot parse number 'foo' in matrixmarket input"
        with pytest.raises(InputError) as exc:
            load_matrix_mm(f"{MM_HEADER}\n2 1\n1\nnan\n")
        assert str(exc.value) == "matrixmarket input contains non-finite entries"
        with pytest.raises(InputError) as exc:
            load_matrix_mm("\n%%MatrixMarket matrix coordinate real general\n1 1 1\n")
        assert str(exc.value) == (
            "matrixmarket input: unsupported MatrixMarket header "
            "'%%MatrixMarket matrix coordinate real general' "
            "(need 'matrix array real general')")

    def test_rejects_wrong_kind(self):
        with pytest.raises(InputError):
            load_matrix_mm("%%MatrixMarket matrix coordinate real general\n1 1 1\n")
        with pytest.raises(InputError):
            load_matrix_mm("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")


@pytest.mark.parametrize("load, header, where, line", [
    *[(load_matrix_csv, "rows,cols", "csv input", line)
      for line in ("2", "2,x", "1,2,3", "2 2")],
    *[(load_matrix_mm, MM_HEADER, "matrixmarket input", line)
      for line in ("2", "2 x", "1 2 3")],
])
def test_bad_dimension_line(load, header, where, line):
    with pytest.raises(InputError) as exc:
        load(f"{header}\n{line}\n1\n")
    assert str(exc.value) == f"{where}: bad dimension line {line!r}"


@pytest.mark.parametrize("load, text, where", [
    (load_matrix_csv, "rows,cols\n", "csv input"),
    (load_matrix_mm, f"{MM_HEADER}\n% comment\n", "matrixmarket input"),
])
def test_no_dimension_line(load, text, where):
    # each format says the same when the file ends after its header
    with pytest.raises(InputError) as exc:
        load(text)
    assert str(exc.value) == f"{where} has no dimension line"


class TestPaths:
    def test_extension_dispatch(self, tmp_path, rng):
        a = rng.standard_normal((4, 3))
        csv_path = tmp_path / "a.csv"
        mm_path = tmp_path / "a.mtx"
        write_matrix(csv_path, a)
        write_matrix(mm_path, a)
        assert csv_path.read_text().startswith("rows,cols")
        assert mm_path.read_text().startswith("%%MatrixMarket")
        np.testing.assert_array_equal(read_matrix(csv_path), a)
        np.testing.assert_array_equal(read_matrix(mm_path), a)

    def test_mm_sniffed_regardless_of_extension(self, tmp_path):
        path = tmp_path / "weird.csv"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n7.0\n")
        np.testing.assert_array_equal(read_matrix(path), [[7.0]])

    def test_vector_roundtrip(self, tmp_path, rng):
        u = rng.standard_normal(9)
        path = tmp_path / "u.csv"
        write_vector(path, u)
        np.testing.assert_array_equal(read_vector(path), u)

    def test_vector_accepts_row_shape(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("rows,cols\n1,3\n1.0,2.0,3.0\n")
        np.testing.assert_array_equal(read_vector(path), [1.0, 2.0, 3.0])

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rows,cols\n2,2\n1,2\n3,4\n")
        with pytest.raises(InputError):
            read_vector(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_matrix(tmp_path / "nope.csv")

    def test_unreadable_text_names_the_path(self, tmp_path):
        not_ascii = tmp_path / "accent.csv"
        not_ascii.write_bytes("rows,cols\n1,1\n1.0\u00e9\n".encode("utf-8"))
        for path in (tmp_path / "nope.csv", not_ascii):
            for reader in (read_text, read_matrix):
                with pytest.raises(InputError, match=f"^cannot read {re.escape(str(path))}: "):
                    reader(path)


# Tokens around the edges of Python's float grammar: whitespace, digit
# underscores, overflow to inf, and C/Fortran/hex spellings it rejects.
TOKENS = [
    "1.5", " 1.5", "1.5\t", "-0", "+.5", "5.", ".5e-3", "1_0", "1_0.2_5",
    "1E+4", "1e400", "1e-400", "4.9e-324", "1.7976931348623157e308",
    "nan", "-NaN", "inf", "-Infinity", "iNfInItY",
    "0x10", "1d5", "1e", "1e+", "e5", "1__0", "_1", "1_", "1.2.3", "1 2",
    "1j", "0b1", "++1", "infinit", "nan(1)", "x",
]


@pytest.mark.parametrize("token", TOKENS)
def test_readers_parse_exactly_what_float_parses(token):
    try:
        expected = float(token)
    except ValueError:
        expected = None
    cases = (
        (load_matrix_csv, f"rows,cols\n1,3\n0,{token},0\n",
         f"cannot parse number {token!r} in csv input row 1",
         "csv input contains non-finite entries"),
        # MatrixMarket strips every value line before parsing it
        (load_matrix_mm, f"{MM_HEADER}\n1 3\n0\n{token}\n0\n",
         f"cannot parse number {token.strip()!r} in matrixmarket input",
         "matrixmarket input contains non-finite entries"),
    )
    for load, text, parse_error, finite_error in cases:
        if expected is None or not math.isfinite(expected):
            with pytest.raises(InputError) as exc:
                load(text)
            assert str(exc.value) == (parse_error if expected is None else finite_error)
        else:
            value = load(text)[0, 1]
            assert value == expected
            assert math.copysign(1.0, value) == math.copysign(1.0, expected)


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                     1.7976931348623157e308, 0.1, 1.0 / 3.0]),
)


@settings(max_examples=150, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                    elements=finite_floats),
       fortran=st.booleans())
def test_bulk_formats_match_element_loops_and_reload_bit_exact(a, fortran):
    if fortran:
        a = np.asfortranarray(a)
    for dump, scan, load in (
        (dump_matrix_csv, oracles.dump_matrix_csv_scan, load_matrix_csv),
        (dump_matrix_mm, oracles.dump_matrix_mm_scan, load_matrix_mm),
    ):
        text = dump(a)
        assert text == scan(a)
        back = load(text)
        assert back.dtype == np.float64 and back.shape == a.shape
        assert back.flags.c_contiguous
        assert back.tobytes() == a.tobytes()   # bit-exact, -0.0 included


class TestBulkParsing:
    """Valid files are parsed in bulk: the per-token parser runs only to
    name the bad token of a malformed file (a count, not a timing)."""

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        calls = []
        per_token = minpinv.matio._parse_float

        def counted(token, where):
            calls.append(token)
            return per_token(token, where)

        monkeypatch.setattr(minpinv.matio, "_parse_float", counted)
        return calls

    def test_valid_files_parse_no_token_alone(self, tmp_path, rng, parse_calls):
        a = rng.standard_normal((299, 301))
        for ext in ("csv", "mtx"):
            path = tmp_path / f"a.{ext}"
            write_matrix(path, a)
            np.testing.assert_array_equal(read_matrix(path), a)
        assert parse_calls == []

    @pytest.mark.parametrize("name,text", [
        ("bad.csv", "rows,cols\n2,3\n1,2,3\n4,5,x\n"),
        ("bad.mtx", f"{MM_HEADER}\n2 1\n1.0\nfoo\n"),
    ])
    def test_malformed_file_falls_back(self, tmp_path, parse_calls, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InputError, match="cannot parse number"):
            read_matrix(path)
        assert len(parse_calls) >= 1
