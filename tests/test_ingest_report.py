"""Ingestion, summary rendering, histogram, and report round-trip tests."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

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
from didperm.report import DECISION_NOT_REJECTED, DECISION_REJECTED


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = "y,time,affected\n1,0,0\n2,1,0\n3,0,1\n5,1,1\n"
# An unmapped quoted `note` column; record 2 spans two lines.
NOTED = 'y,time,affected,note\n1,0,0,a\n2,1,0,"two\nlines"\n3,0,1,"c"\n5,1,1,"d"\n'


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


def mock_dist(values):
    from didperm import NullDistribution, Source

    values = np.asarray(values, dtype=np.float64)
    return NullDistribution(
        values=values,
        iterations_requested=values.size,
        scheme=RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS),
        master_seed=0,
        degenerate_draws_discarded=0,
        source=Source.MONTE_CARLO,
    )


class TestHistogram:
    def test_single_bin_for_constant_values(self):
        hist = make_histogram(mock_dist([0.0, 0.0, 0.0]), bins=1)
        assert len(hist) == 1
        assert hist[0][2] == 3

    def test_equal_width_split(self):
        hist = make_histogram(mock_dist([1.0, 2.0, 3.0, 4.0]), bins=2)
        assert hist == [(1.0, 2.5, 2), (2.5, 4.0, 2)]

    def test_mass_conservation(self):
        rng = np.random.default_rng(92)
        values = rng.normal(size=500)
        for bins in (1, 2, 3, 7, 50):
            hist = make_histogram(mock_dist(values), bins=bins)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            make_histogram(mock_dist([1.0]), bins=0)


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
