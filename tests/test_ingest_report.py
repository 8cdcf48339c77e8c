"""Ingestion, summary rendering, histogram, and report round-trip tests."""

import csv
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from didperm import (
    BRAND_SEARCH,
    ColumnMap,
    EmptyFileError,
    INPRESS,
    MINWAGE_WAGE_ST,
    MalformedRowError,
    Margins,
    MissingColumnError,
    Mode,
    PanelSample,
    RandomizationScheme,
    Report,
    SCHEMA_VERSION,
    compute_cell_means,
    did_value,
    load_panel,
    make_fixture,
    make_histogram,
    read_report,
    simulate_null,
    space_stats,
    summarize,
    write_fixture_csv,
    write_report,
)
from didperm import ingest
from didperm.report import DECISION_NOT_REJECTED, DECISION_REJECTED
from helpers import SPLICES, mock_distribution


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = "y,time,affected\n1,0,0\n2,1,0\n3,0,1\n5,1,1\n"
# An unmapped quoted `note` column; record 2 spans two lines.
NOTED = 'y,time,affected,note\n1,0,0,a\n2,1,0,"two\nlines"\n3,0,1,"c"\n5,1,1,"d"\n'

CLEAN = b"y,time,affected\n1.5,0,0\n-2.25,1,0\n3e-3,0,1\n5,1,1\n0.1,1,1\n"


def _outcome(token):
    """CLEAN with `token` as the outcome of data row 2."""
    return CLEAN.replace(b"-2.25,", token + b",")


def _noted(note):
    """A 4-row file with an unmapped `note` column, `note` in data row 3."""
    return b"y,time,affected,note\n1,0,0,a\n2,1,0,b\n3,0,1," + note + b"\n5,1,1,e\n"


# Files whose `load_panel` result is pinned below: shapes that a bulk parse
# of clean batches has to accept alike or leave to the streaming parser.
LOAD_PANEL_SHAPES = {
    "clean": CLEAN,
    "bom": b"\xef\xbb\xbf" + CLEAN,
    "crlf": CLEAN.replace(b"\n", b"\r\n"),
    "mixed-lf-crlf": b"y,time,affected\r\n1.5,0,0\n-2.25,1,0\r\n3e-3,0,1\n5,1,1\r\n0.1,1,1\n",
    "cr": CLEAN.replace(b"\n", b"\r"),
    # csv reads "\r\r\n" as a line end, then an empty line
    "crlf-cr-crlf": CLEAN.replace(b"\n", b"\r\n").replace(b"3e-3,0,1\r", b"3e-3,0,1\r\r"),
    "crlf-bad-label": CLEAN.replace(b"3e-3,0,1", b"3e-3,0,2").replace(b"\n", b"\r\n"),
    "quoted": b'y,time,affected,note\n"1.5",0,0,a\n2,"1",0,"two\nlines"\n3,0,"1","c"\n5,1,1,"d"\n',
    "no-final-newline": CLEAN[:-1],
    "padded-label": CLEAN.replace(b"5,1,1", b"5, 1,1"),
    "extra-reordered": b"note,affected,y,extra,time\na,0,1.5,x,0\nb,0,2,,1\nc,1,3,z,0\nd,1,5,w,1\n",
    "unmapped-repeated": b"note,y,time,affected,note\na,1,0,0,b\nc,2,1,0,d\ne,3,0,1,f\ng,5,1,1,h\n",
    "outcome-1_0": _outcome(b"1_0"),
    "outcome-007": _outcome(b"007"),
    "outcome-minus-0": _outcome(b"-0"),
    "outcome-+.1E+2": _outcome(b"+.1E+2"),
    "outcome-1e400": _outcome(b"1e400"),
    "outcome-nan": _outcome(b"nan"),
    "outcome-tab-2": _outcome(b"\t2"),
    "nul-in-unmapped": _noted(b"b\x00c"),
    "nul-in-label": CLEAN.replace(b"5,1,1", b"5,1\x00,1"),
    # csv's default field limit, and one past it, in a column that is not read
    "unmapped-131072": _noted(b"z" * 131_072),
    "unmapped-131073": _noted(b"z" * 131_073),
}

# name -> (sha256 of y.tobytes()[:16], time, affected) or (error type, row, message)
LOAD_PANEL_PINS = {
    "clean": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "bom": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "crlf": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "mixed-lf-crlf": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "cr": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "crlf-cr-crlf": (MalformedRowError, 4, "row 4: expected 3 fields, got 0"),
    "crlf-bad-label": (MalformedRowError, 3, "row 3: column 'affected' must be 0 or 1, got '2'"),
    "quoted": ("31e940776cbed9fe", [0, 1, 0, 1], [0, 0, 1, 1]),
    "no-final-newline": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "padded-label": ("060ac5c7e49aad0d", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "extra-reordered": ("31e940776cbed9fe", [0, 1, 0, 1], [0, 0, 1, 1]),
    "unmapped-repeated": ("1555df31ada0bf7c", [0, 1, 0, 1], [0, 0, 1, 1]),
    "outcome-1_0": ("32a9f3babcd0aa58", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "outcome-007": ("62371f7093735c22", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "outcome-minus-0": ("c1d08e8042486d1c", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "outcome-+.1E+2": ("32a9f3babcd0aa58", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "outcome-1e400": (MalformedRowError, 2, "row 2: column 'y' must be finite, got '1e400'"),
    "outcome-nan": (MalformedRowError, 2, "row 2: column 'y' must be finite, got 'nan'"),
    "outcome-tab-2": ("3b4aa64743fdf726", [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]),
    "nul-in-unmapped": ("1555df31ada0bf7c", [0, 1, 0, 1], [0, 0, 1, 1]),
    "nul-in-label": (MalformedRowError, 4, "row 4: column 'time' must be 0 or 1, got '1\\x00'"),
    "unmapped-131072": ("1555df31ada0bf7c", [0, 1, 0, 1], [0, 0, 1, 1]),
    "unmapped-131073": (MalformedRowError, 3, "row 3: field larger than field limit (131072)"),
}


# Tokens that a clean file does not hold, for the mapped and unmapped columns alike.
ODD_TOKENS = [
    *("1_0", "007", "-0", "+.1E+2", "1e400", "nan", "\t2", " 1", "", "x", "0x10"),
    *("2", "1.0", "1e308", "-1.7e308", '"1"', '"two\nlines"', '"open', "b\x00c", "z" * 12),
    "caf\udce9",  # encodes to the Latin-1 byte 0xe9
    "1\x1c",  # np.loadtxt reads 1.0, float raises
]
CLEAN_TOKENS = {
    "y": ["0", "1", "-2.5", "0.5", "4e307", "1e-300"],
    "time": ["0", "1"],
    "affected": ["0", "1"],
    "note": ["a", "", "zz"],
}


@st.composite
def panel_files(draw):
    """Bytes of a panel file: clean rows, then odd tokens, line ends and spliced bytes."""
    extra = draw(st.sampled_from([[], ["note"], ["note", "note"]]))
    header = draw(st.permutations(["y", "time", "affected", *extra]))
    rows = [
        [draw(st.sampled_from(CLEAN_TOKENS[name])) for name in header]
        for _ in range(draw(st.integers(0, 40)))
    ]
    edits = st.tuples(st.integers(0, 39), st.integers(0, 4), st.sampled_from(ODD_TOKENS))
    for row, column, token in draw(st.lists(edits, max_size=2)):
        if rows:
            rows[row % len(rows)][column % len(header)] = token
    for row, more in draw(st.lists(st.tuples(st.integers(0, 39), st.booleans()), max_size=2)):
        if rows:  # a ragged row: one field more or one less
            fields = rows[row % len(rows)]
            fields[-1:] = fields[-1:] + ["0"] if more else []
    header[0] = draw(st.sampled_from(["{}", "{}", '"{}"', " {} "])).format(header[0])
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    data = (end.join(",".join(row) for row in [header, *rows]) + draw(st.sampled_from([end, ""])))
    data = data.encode("utf-8", "surrogateescape")
    for position, piece in draw(st.lists(st.tuples(st.integers(0, 2000), st.sampled_from(SPLICES)), max_size=2)):
        position %= len(data) + 1
        data = data[:position] + piece + data[position:]
    return data


def load_outcome(path):
    """What `load_panel(path)` returns or raises, in comparable form."""
    try:
        sample = load_panel(path)
    except (EmptyFileError, MalformedRowError, MissingColumnError) as exc:
        return type(exc), getattr(exc, "row", None), str(exc)
    return sample.y.tobytes(), sample.time.tolist(), sample.affected.tolist()


def streamed_outcome(monkeypatch, path):
    """`load_outcome` with every header sent to the streaming parser, which then reads the whole file."""
    monkeypatch.setattr(ingest, "_plain_header", lambda line: None)
    return load_outcome(path)


class TestLoadPanel:
    def test_minimal_panel(self, tmp_path):
        sample = load_panel(write_csv(tmp_path, MINIMAL))
        assert sample.n == 4
        assert np.array_equal(sample.y, [1.0, 2.0, 3.0, 5.0])
        assert np.array_equal(sample.time, [0, 1, 0, 1])
        assert np.array_equal(sample.affected, [0, 0, 1, 1])

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode("utf-8"))
        sample = load_panel(path)
        assert np.array_equal(sample.y, [1.0, 2.0, 3.0, 5.0])
        assert np.array_equal(sample.affected, [0, 0, 1, 1])

    def test_custom_column_map_and_order(self, tmp_path):
        text = "when,score,group\n0,1.5,0\n1,2.5,0\n0,3.5,1\n1,4.5,1\n"
        sample = load_panel(
            write_csv(tmp_path, text),
            ColumnMap(outcome_column="score", time_column="when", affected_column="group"),
        )
        assert np.array_equal(sample.y, [1.5, 2.5, 3.5, 4.5])

    def test_nonbinary_label_names_row(self, tmp_path):
        text = "y,time,affected\n1,0,0\n2,2,0\n3,0,1\n5,1,1\n"
        with pytest.raises(MalformedRowError) as err:
            load_panel(write_csv(tmp_path, text))
        assert err.value.row == 2
        assert "time" in str(err.value)

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", ""])
    def test_bad_outcome_rejected(self, tmp_path, bad):
        text = f"y,time,affected\n1,0,0\n{bad},1,0\n3,0,1\n5,1,1\n"
        with pytest.raises(MalformedRowError) as err:
            load_panel(write_csv(tmp_path, text))
        assert err.value.row == 2

    def test_ragged_row(self, tmp_path):
        text = "y,time,affected\n1,0,0\n2,1\n3,0,1\n5,1,1\n"
        with pytest.raises(MalformedRowError) as err:
            load_panel(write_csv(tmp_path, text))
        assert err.value.row == 2

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumnError) as err:
            load_panel(write_csv(tmp_path, "y,time,group\n1,0,0\n"))
        assert "affected" in str(err.value)

    @pytest.mark.parametrize(
        "header, name, times",
        [
            ("y,time,affected,y", "y", 2),
            ("y,time,affected,time", "time", 2),
            ("y,affected,time,affected", "affected", 2),
            ("y,time,affected, affected ", "affected", 2),  # names are compared stripped
            ("time,y,time,affected,time", "time", 3),
        ],
    )
    def test_mapped_column_named_twice_is_row_zero(self, tmp_path, header, name, times):
        # Which of the columns to read is ambiguous, so the header is the faulty row.
        row = ",".join(["1"] * len(header.split(",")))
        with pytest.raises(MalformedRowError) as err:
            load_panel(write_csv(tmp_path, "\n".join([header] + [row] * 4) + "\n"))
        assert err.value.row == 0
        assert str(err.value) == f"row 0: column {name!r} appears {times} times in the header"

    def test_unmapped_column_named_twice_is_accepted(self, tmp_path):
        text = "note,y,time,affected,note\na,1,0,0,b\nc,2,1,0,d\ne,3,0,1,f\ng,5,1,1,h\n"
        sample = load_panel(write_csv(tmp_path, text))
        assert np.array_equal(sample.y, [1.0, 2.0, 3.0, 5.0])
        # `affected` is unmapped once the map reads `group` instead.
        text = "y,time,affected,group,affected\n1,0,9,0,9\n2,1,9,0,9\n3,0,9,1,9\n5,1,9,1,9\n"
        sample = load_panel(write_csv(tmp_path, text), ColumnMap(affected_column="group"))
        assert np.array_equal(sample.affected, [0, 0, 1, 1])

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(EmptyFileError):
            load_panel(write_csv(tmp_path, ""))
        with pytest.raises(EmptyFileError):
            load_panel(write_csv(tmp_path, "y,time,affected\n"))

    def test_bool_words_are_rejected(self, tmp_path):
        text = "y,time,affected\n1,0,false\n2,1,False\n3,0,TRUE\n5,1,true\n"
        with pytest.raises(MalformedRowError):
            load_panel(write_csv(tmp_path, text))

    def test_label_floats_are_rejected(self, tmp_path):
        text = "y,time,affected\n1,0,0\n2,1.0,0\n3,0,1\n5,1,1\n"
        with pytest.raises(MalformedRowError):
            load_panel(write_csv(tmp_path, text))

    def test_error_path_streams_the_file(self, tmp_path, monkeypatch):
        # Rows 1-2000 fill several decoder chunks before the Latin-1 byte.
        rows = "".join(f"{k},{k % 2},{k // 2 % 2}\n" for k in range(2000))
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(("y,time,affected\n" + rows).encode() + b"caf\xe9,0,0\n")
        wide = write_csv(tmp_path, MINIMAL.replace("3,0,1", "3" * 131_073 + ",0,1"), "wide.csv")

        def read_whole(*args, **kwargs):
            raise AssertionError("the file was read whole")

        monkeypatch.setattr(Path, "read_bytes", read_whole)
        monkeypatch.setattr(Path, "read_text", read_whole)
        for path, row, message in (
            (latin1, 2001, "not valid UTF-8 text"),
            (wide, 3, "field larger than field limit"),
        ):
            with pytest.raises(MalformedRowError, match=f"row {row}: {message}") as err:
                load_panel(path)
            assert err.value.row == row

    def test_each_file_is_opened_once(self, tmp_path, monkeypatch):
        rows = "".join(f"{k},{k % 2},{k // 2 % 2}\n" for k in range(2000))
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(("y,time,affected\n" + rows).encode() + b"caf\xe9,0,0\n")
        wide = write_csv(tmp_path, MINIMAL.replace("3,0,1", "3" * 131_073 + ",0,1"), "wide.csv")
        minimal = write_csv(tmp_path, MINIMAL)
        opened = []
        real_open = Path.open

        def spy(self, *args, **kwargs):
            opened.append(self)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spy)
        for path in (minimal, latin1, wide):
            opened.clear()
            try:
                load_panel(path)
            except MalformedRowError:
                pass
            assert opened == [path]

    def test_long_file_names_its_first_fault_past_the_first_batch(self, tmp_path):
        # About 180 KB, so lines are checked in several batches.  An earlier
        # fault in the batch that holds the Latin-1 byte is named first.
        rows = [f"{k},{k % 2},{k // 2 % 2}\n".encode() for k in range(12_000)]
        rows[9_000] = b"caf\xe9,0,0\n"
        header = b"y,time,affected\n"
        path = tmp_path / "long.csv"
        path.write_bytes(header + b"".join(rows))
        with pytest.raises(MalformedRowError, match="row 9001: not valid UTF-8 text"):
            load_panel(path)
        rows[8_990] = b"1,9,0\n"
        path.write_bytes(header + b"".join(rows))
        with pytest.raises(MalformedRowError, match="row 8991: column 'time'"):
            load_panel(path)

    def test_bad_byte_on_a_later_line_of_a_record_names_that_record(self, tmp_path):
        path = tmp_path / "noted.csv"
        path.write_bytes(NOTED.replace('"c"', '"first\ncaf\xe9"').encode("latin-1"))
        with pytest.raises(MalformedRowError, match="row 3: not valid UTF-8 text") as err:
            load_panel(path)
        assert err.value.row == 3

    def test_rows_count_records_not_lines(self, tmp_path):
        path = write_csv(tmp_path, NOTED.replace("5,1,1", "5,1,2"))
        with pytest.raises(MalformedRowError, match="row 4: column 'affected'") as err:
            load_panel(path)
        assert err.value.row == 4

    def test_bad_byte_is_named_before_an_over_long_field_on_its_line(self, tmp_path):
        path = tmp_path / "noted.csv"
        note = '"' + "z" * 131_073 + ' caf\xe9"'
        path.write_bytes(NOTED.replace('"c"', note).encode("latin-1"))
        with pytest.raises(MalformedRowError, match="row 3: not valid UTF-8 text") as err:
            load_panel(path)
        assert err.value.row == 3

    @pytest.mark.parametrize("name", LOAD_PANEL_SHAPES)
    def test_load_panel_pins(self, tmp_path, name):
        path = tmp_path / "panel.csv"
        path.write_bytes(LOAD_PANEL_SHAPES[name])
        expected = LOAD_PANEL_PINS[name]
        if isinstance(expected[0], type):
            kind, row, message = expected
            with pytest.raises(kind) as err:
                load_panel(path)
            assert (err.value.row, str(err.value)) == (row, message)
            return
        digest, time, affected = expected
        sample = load_panel(path)
        assert hashlib.sha256(sample.y.tobytes()).hexdigest()[:16] == digest
        assert sample.time.tolist() == time and sample.affected.tolist() == affected
        assert sample.time.dtype == sample.affected.dtype == np.int8

    def test_sample_keeps_the_int8_labels_of_both_parsers(self, tmp_path, monkeypatch):
        # The first batches go to the bulk parser, the quoted last row to
        # the streaming parser; the sample keeps the joined labels as built.
        rows = 40_000
        body = b"y,time,affected\n" + b"1.5,0,0\n2,1,1\n" * (rows // 2) + b'"3",0,1\n'
        path = tmp_path / "panel.csv"
        path.write_bytes(body)
        assert len(body) > ingest._BATCH_BYTES
        handed = {}

        def sample_of(**vectors):
            handed.update(vectors)
            return PanelSample(**vectors)

        monkeypatch.setattr(ingest, "PanelSample", sample_of)
        sample = load_panel(path)
        assert sample.n == rows + 1
        assert sample.time is handed["time"] and sample.affected is handed["affected"]
        assert sample.time.dtype == sample.affected.dtype == np.int8
        assert sample.time[-2:].tolist() == [1, 0] and sample.affected[-2:].tolist() == [1, 1]

    def test_bulk_parses_a_clean_crlf_batch(self):
        body = CLEAN.partition(b"\n")[2]
        layout = (3, [0, 1, 2])
        lf = ingest._bulk(body, layout)
        crlf = ingest._bulk(body.replace(b"\n", b"\r\n"), layout)
        assert lf is not None and crlf is not None
        assert [part.tolist() for part in crlf] == [part.tolist() for part in lf]
        # a lone "\r" leaves the batch to the streaming parser
        assert ingest._bulk(body.replace(b"-2.25,1,0\n", b"-2.25,1,0\r"), layout) is None

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        content=panel_files(),
        batch_bytes=st.sampled_from([1, 5, 16, 64, 2**18]),
        limit=st.sampled_from([131_072, 131_072, 10, 4]),
    )
    @example(content=LOAD_PANEL_SHAPES["unmapped-131073"], batch_bytes=2**18, limit=131_072)
    @example(content=CLEAN.replace(b"\n", b"\r"), batch_bytes=16, limit=131_072)
    # In a column that is not read: a quote left open swallows the lines
    # after it, and a byte that is not UTF-8 is a fault.
    @example(content=_noted(b'"open'), batch_bytes=2**18, limit=131_072)
    @example(content=_noted(b"caf\xe9"), batch_bytes=2**18, limit=131_072)
    # A carriage return splits a line for csv; np.loadtxt strips an
    # outcome's 0x1c, float does not; a row short of a field and the next
    # one over it hold the header's field count between them.
    @example(content=_noted(b"a\rb"), batch_bytes=2**18, limit=131_072)
    @example(content=_outcome(b"1\x1c"), batch_bytes=2**18, limit=131_072)
    @example(
        content=CLEAN.replace(b"-2.25,1,0\n3e-3,0,1", b"-2.25,1\n0,0,1,1"),
        batch_bytes=2**18,
        limit=131_072,
    )
    def test_bulk_parse_matches_the_streaming_parser(
        self, tmp_path_factory, content, batch_bytes, limit
    ):
        # Small batches put batch boundaries everywhere; a small field limit
        # (read by both parsers at call time) puts fields past it.
        path = tmp_path_factory.mktemp("bulk") / "panel.csv"
        path.write_bytes(content)
        default_limit = csv.field_size_limit(limit)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_BATCH_BYTES", batch_bytes)
                outcome = load_outcome(path)
            with pytest.MonkeyPatch.context() as mp:
                assert outcome == streamed_outcome(mp, path)
        finally:
            csv.field_size_limit(default_limit)

    def test_fault_in_a_late_batch_is_named_as_the_streaming_parser_names_it(
        self, tmp_path, monkeypatch
    ):
        rows = [f"{k}.25,{k % 2},{k // 2 % 2}\n" for k in range(3000)]
        rows[2718] = "2718.25,0,2\n"
        path = write_csv(tmp_path, "y,time,affected\n" + "".join(rows))
        monkeypatch.setattr(ingest, "_BATCH_BYTES", 512)
        starts = []
        parse_records = ingest._parse_records

        def spy(records, path, columns, layout=None, parsed=0):
            starts.append(parsed)
            return parse_records(records, path, columns, layout, parsed)

        monkeypatch.setattr(ingest, "_parse_records", spy)
        outcome = load_outcome(path)
        assert outcome == streamed_outcome(monkeypatch, path)
        assert outcome == (MalformedRowError, 2719, "row 2719: column 'affected' must be 0 or 1, got '2'")
        # The bulk path read the batches before the fault's; the streaming
        # parser took over within the last batch of 512 bytes or so.
        assert 2719 - 60 < starts[0] < 2719 and starts[1] == 0

    def test_fixture_round_trip_reproduces_reference_means(self, tmp_path):
        path = write_fixture_csv(tmp_path / "inpress.csv", make_fixture(INPRESS))
        cells = compute_cell_means(load_panel(path))
        assert cells.means[0, 0] == pytest.approx(9.7327, abs=1e-4)
        assert cells.means[0, 1] == pytest.approx(8.4759, abs=1e-4)
        assert cells.means[1, 0] == pytest.approx(10.1184, abs=1e-4)
        assert cells.means[1, 1] == pytest.approx(8.9379, abs=1e-4)

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(91)
        sample = PanelSample(
            y=rng.normal(size=12), time=[0, 1] * 6, affected=[0, 0, 1, 1] * 3
        )
        loaded = load_panel(write_fixture_csv(tmp_path / "x.csv", sample))
        assert np.array_equal(loaded.y, sample.y)
        assert np.array_equal(loaded.time, sample.time)
        assert np.array_equal(loaded.affected, sample.affected)


def parse_table_rows(rendering):
    rows = []
    for line in rendering.splitlines()[1:]:
        rows.append([float(tok) for tok in re.findall(r"-?\d+\.\d+", line)])
    return rows


class TestSummarize:
    def test_brand_search_orientation(self):
        table = summarize(make_fixture(BRAND_SEARCH))
        control, treated = parse_table_rows(table)
        assert control == pytest.approx([1.915, 2.055], abs=1e-4)
        assert treated == pytest.approx([5.681, 10.648], abs=1e-4)

    def test_wage_table(self):
        table = summarize(make_fixture(MINWAGE_WAGE_ST))
        control, treated = parse_table_rows(table)
        assert control == pytest.approx([4.6301, 4.6175], abs=1e-4)
        assert treated == pytest.approx([4.6121, 5.0808], abs=1e-4)

    def test_constant_sample(self):
        s = PanelSample(y=[7.0] * 8, time=[0, 1] * 4, affected=[0, 0, 1, 1] * 2)
        rows = parse_table_rows(summarize(s))
        assert rows[0] == rows[1] == [7.0, 7.0]

    def test_empty_cell_rendered_explicitly(self):
        s = PanelSample(y=[1, 2, 3, 4], time=[0, 0, 1, 1], affected=[0, 0, 1, 1])
        assert "(empty)" in summarize(s)

    def test_summary_and_estimate_share_cell_means(self):
        sample = make_fixture(BRAND_SEARCH)
        table_means = np.array(parse_table_rows(summarize(sample)))
        m = table_means
        assert (m[1, 1] - m[1, 0]) - (m[0, 1] - m[0, 0]) == pytest.approx(
            did_value(sample), abs=1e-4
        )


class TestHistogram:
    def test_single_bin_for_constant_values(self):
        hist = make_histogram(mock_distribution([0.0, 0.0, 0.0]), bins=1)
        assert len(hist) == 1
        assert hist[0][2] == 3

    def test_equal_width_split(self):
        hist = make_histogram(mock_distribution([1.0, 2.0, 3.0, 4.0]), bins=2)
        assert hist == [(1.0, 2.5, 2), (2.5, 4.0, 2)]

    def test_mass_conservation(self):
        rng = np.random.default_rng(92)
        values = rng.normal(size=500)
        for bins in (1, 2, 3, 7, 50):
            hist = make_histogram(mock_distribution(values), bins=bins)
            assert sum(count for _, _, count in hist) == 500
            for (_, hi, _), (lo, _, _) in zip(hist, hist[1:]):
                assert hi == lo

    def test_symmetric_null_mirrors(self):
        # A balanced dual fixed-margin null is exactly sign-symmetric, so
        # bin counts of mirrored bins differ only by sampling noise.
        rng = np.random.default_rng(93)
        sample = PanelSample(
            y=rng.normal(size=8), time=[0, 1] * 4, affected=[0, 0, 1, 1] * 2
        )
        dist = simulate_null(
            sample,
            RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS),
            iterations=15000,
            master_seed=40,
        )
        assert dist.values.min() == -dist.values.max()
        bins = 12
        counts = np.array([c for _, _, c in make_histogram(dist, bins)])
        mirrored = counts[::-1]
        sigma = np.sqrt(counts + mirrored + 1.0)
        assert np.all(np.abs(counts - mirrored) <= 5.0 * sigma)

    @pytest.mark.parametrize(
        "values, edges",
        [
            ([0.0, 5e-324], (-0.5, 0.5)),
            ([-1.0, -1.0 + 2**-53], (-1.5, -0.5 + 2**-53)),
            ([-(2.0**60)] * 3, (-1.5 * 2**60, -0.5 * 2**60)),
        ],
    )
    def test_span_too_narrow_to_split_is_widened(self, values, edges):
        hist = make_histogram(mock_distribution(values), bins=50)
        assert len(hist) == 50 and (hist[0][0], hist[-1][1]) == edges
        assert all(lo < hi for lo, hi, _ in hist)
        assert sum(count for _, _, count in hist) == len(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_histogram(mock_distribution([1.0]), bins=0)
        with pytest.raises(ValueError, match="empty"):
            make_histogram(mock_distribution([]), bins=5)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        values=st.one_of(
            # integers put values on the edges; one repeated value is constant
            st.lists(st.integers(-3, 5).map(float), min_size=1, max_size=40),
            st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
            st.builds(lambda v, m: [v] * m, st.floats(-1e3, 1e3), st.integers(1, 30)),
        ),
        bins=st.integers(1, 60),
    )
    @example(values=[0.3], bins=3)
    @example(values=[0.0, 5e-324], bins=2)
    def test_matches_numpy_histogram(self, values, bins):
        hist = make_histogram(mock_distribution(values), bins=bins)
        values = np.array(values)
        try:
            counts, edges = np.histogram(values, bins=bins)
        except ValueError:
            # numpy cannot split the span into `bins` positive widths: it is
            # widened by half of max(1, |min|, |max|) on each side.
            lo, hi = float(values.min()), float(values.max())
            pad = 0.5 * max(1.0, abs(lo), abs(hi))
            counts, edges = np.histogram(values, bins=bins, range=(lo - pad, hi + pad))
        assert [c for _, _, c in hist] == counts.tolist()
        assert np.array([lo for lo, _, _ in hist] + [hist[-1][1]]).tobytes() == edges.tobytes()


def example_report():
    return Report(
        dataset_id="brand_search",
        scheme=RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS),
        iterations=15000,
        master_seed=42,
        observed=4.827,
        lower=-math.pi,
        upper=2.9560001,
        alpha=0.05,
        decision=DECISION_REJECTED,
        p_raw=0.0008,
        p_corrected=1.3e-3,
        histogram=((-3.0, 0.0, 7400), (0.0, 3.0, 7600)),
        space_stats=space_stats(40, 20, 20),
    )


# write_report(example_report()) byte for byte: the nested key order and
# the shortest-repr floats are part of the format.
GOLDEN_REPORT = (
    '{\n'
    '  "schema": "didperm-report/1",\n'
    '  "dataset_id": "brand_search",\n'
    '  "scheme": {\n'
    '    "margins": "dual",\n'
    '    "mode": "fixed"\n'
    '  },\n'
    '  "iterations": 15000,\n'
    '  "master_seed": 42,\n'
    '  "observed": 4.827,\n'
    '  "lower": -3.141592653589793,\n'
    '  "upper": 2.9560001,\n'
    '  "alpha": 0.05,\n'
    '  "decision": "rejected",\n'
    '  "p_raw": 0.0008,\n'
    '  "p_corrected": 0.0013,\n'
    '  "histogram": [\n'
    '    [\n'
    '      -3.0,\n'
    '      0.0,\n'
    '      7400\n'
    '    ],\n'
    '    [\n'
    '      0.0,\n'
    '      3.0,\n'
    '      7600\n'
    '    ]\n'
    '  ],\n'
    '  "space_stats": {\n'
    '    "n": 40,\n'
    '    "n_affected": 20,\n'
    '    "n_time": 20,\n'
    '    "p_affected": 0.5,\n'
    '    "p_time": 0.5,\n'
    '    "log_size_single": 25.649406793250407,\n'
    '    "log_size_dual": 51.29881358650081,\n'
    '    "log_gain": 25.649406793250407,\n'
    '    "log_size_bernoulli_dual": 55.451774444795625,\n'
    '    "entropy_affected": 0.6931471805599453,\n'
    '    "entropy_time": 0.6931471805599453\n'
    '  }\n'
    '}\n'
)


class TestReport:
    def test_round_trip_equality(self, tmp_path):
        report = example_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        assert read_report(path) == report

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(example_report(), path)
        assert path.read_bytes() == GOLDEN_REPORT.encode("utf-8")

    def test_schema_version_and_field_order(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(example_report(), path)
        data = json.loads(path.read_text(), object_pairs_hook=list)
        keys = [k for k, _ in data]
        assert keys == [
            "schema",
            "dataset_id",
            "scheme",
            "iterations",
            "master_seed",
            "observed",
            "lower",
            "upper",
            "alpha",
            "decision",
            "p_raw",
            "p_corrected",
            "histogram",
            "space_stats",
        ]
        assert dict(data)["schema"] == SCHEMA_VERSION

    def test_decision_literals(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(example_report(), path)
        assert '"decision": "rejected"' in path.read_text()
        with pytest.raises(ValueError):
            Report(
                **{
                    **example_report().__dict__,
                    "decision": "maybe",
                }
            )
        not_rejected = Report(**{**example_report().__dict__, "decision": DECISION_NOT_REJECTED})
        write_report(not_rejected, path)
        assert '"decision": "not_rejected"' in path.read_text()

    def test_io_errors_carry_path(self, tmp_path):
        with pytest.raises(OSError) as err:
            write_report(example_report(), tmp_path / "missing" / "report.json")
        assert "report.json" in str(err.value)
        with pytest.raises(OSError):
            read_report(tmp_path / "nope.json")

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(example_report(), path)
        data = json.loads(path.read_text())
        data["schema"] = "didperm-report/999"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            read_report(path)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals and +-max included


@st.composite
def space_margins(draw):
    n = draw(st.integers(2, 10**6))
    return n, draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))


REPORTS = st.builds(
    Report,
    dataset_id=st.text(max_size=20),
    scheme=st.sampled_from([RandomizationScheme(a, b) for a in Margins for b in Mode]),
    iterations=st.integers(1, 10**9),
    master_seed=st.integers(0, 2**64 - 1),
    observed=FLOATS,
    lower=FLOATS,
    upper=FLOATS,
    alpha=FLOATS,
    decision=st.sampled_from([DECISION_REJECTED, DECISION_NOT_REJECTED]),
    p_raw=FLOATS,
    p_corrected=FLOATS,
    histogram=st.lists(st.tuples(FLOATS, FLOATS, st.integers(0, 2**63 - 1)), min_size=1, max_size=60),
    space_stats=space_margins().map(lambda m: space_stats(*m)),
)


class TestReportRoundTrip:
    @settings(max_examples=200, deadline=None, database=None)
    @given(report=REPORTS)
    @example(
        report=dataclasses.replace(
            example_report(),
            observed=-0.0,
            lower=-1e308,
            upper=1e308,
            alpha=5e-324,
            p_raw=-5e-324,
            p_corrected=2.2250738585072014e-308,
            histogram=((-0.0, 0.0, 0), (1.7976931348623157e308, -1.7976931348623157e308, 1)),
        )
    )
    def test_any_report_round_trips_to_identical_bytes(self, tmp_path_factory, report):
        # Reading a report back gives the report written, field for field
        # and, through repr, bit for bit (the sign of -0.0 included); writing
        # it again gives the same bytes.
        work = tmp_path_factory.mktemp("round-trip")
        write_report(report, work / "first.json")
        back = read_report(work / "first.json")
        assert back == report
        assert repr(back) == repr(report)
        write_report(back, work / "second.json")
        assert (work / "second.json").read_bytes() == (work / "first.json").read_bytes()
