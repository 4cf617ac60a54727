"""TSV parsing, user lookups, stats, prediction files and the checkpoint container."""

import codecs
import io
import json
import struct

import numpy as np
import pytest

import newsrec.mind as mind
from newsrec.errors import ConfigError, MissingInput, NotAPermutation

NEWS_LINE = b"N1\tsports\tgolf\tPGA Tour winners\tA gallery.\thttp://x\t[]\t[]"


def test_parse_news_maps_fields_directly():
    articles, errors = mind.parse_news([NEWS_LINE])
    assert errors == []
    (a,) = articles
    assert a.news_id == "N1"
    assert a.category == "sports"
    assert a.subcategory == "golf"
    assert a.title == "PGA Tour winners"
    assert a.abstract == "A gallery."
    assert a.url == "http://x"


def test_parse_news_wrong_column_count_is_recorded_not_raised():
    articles, errors = mind.parse_news([b"a\tb\tc\td\te\tf\tg"])
    assert articles == []
    assert len(errors) == 1
    assert errors[0].reason == "WrongColumnCount"
    assert errors[0].line_no == 1


def test_parse_news_records_an_id_that_starts_with_a_byte_order_mark():
    marked = "\ufeff".encode() + NEWS_LINE
    articles, errors = mind.parse_news([NEWS_LINE.replace(b"N1", b"N2"), marked])
    assert [a.news_id for a in articles] == ["N2"]
    assert [(e.line_no, e.reason) for e in errors] == [(2, "ByteOrderMarkInNewsId")]


def test_load_news_drops_one_leading_mark_and_records_a_second(tmp_path):
    path = tmp_path / "news.tsv"
    path.write_bytes(codecs.BOM_UTF8 * 2 + NEWS_LINE + b"\n" + NEWS_LINE.replace(b"N1", b"N2"))
    articles, errors = mind.load_news(str(path))
    assert [a.news_id for a in articles] == ["N2"]
    assert [(e.line_no, e.reason) for e in errors] == [(1, "ByteOrderMarkInNewsId")]


def test_parse_news_mixed_fixture_counts():
    lines = []
    for i in range(20):
        if i in (4, 11):
            lines.append(b"truncated line without tabs")
        else:
            lines.append(f"N{i}\tnews\tworld\tTitle number {i} here\tBody {i}.\tu\t[]\t[]".encode())
    articles, errors = mind.parse_news(lines)
    assert len(articles) == 18
    assert len(errors) == 2
    assert [e.line_no for e in errors] == [5, 12]
    assert len(articles) + len(errors) == len(lines)


def test_parse_behaviors_splits_labeled_candidates():
    line = b"1\tU1\t11/11/2019 9:05:58 AM\tN100 N101\tN5-1 N7-0 N9-0"
    logs, errors = mind.parse_behaviors([line])
    assert errors == []
    (log,) = logs
    assert log.impression_id == "1"
    assert log.user_id == "U1"
    assert log.history == ("N100", "N101")
    assert log.candidates == (("N5", 1), ("N7", 0), ("N9", 0))
    assert log.clicked() == ("N5",)


def test_parse_behaviors_empty_history_is_cold_start():
    logs, errors = mind.parse_behaviors([b"1\tU1\tt\t\tN5-1 N6-0"])
    assert errors == []
    assert logs[0].history == ()


def test_parse_behaviors_bad_label_suffix():
    logs, errors = mind.parse_behaviors([b"1\tU1\tt\tN2\tN5-2"])
    assert logs == []
    assert errors[0].reason == "BadLabelSuffix"


def test_behavior_round_trip():
    lines = [
        b"1\tU1\t11/11/2019 9:05:58 AM\tN1 N2\tN5-1 N7-0",
        b"2\tU2\t11/12/2019 1:00:00 PM\t\tN8-0 N9-1 N10-0",
    ]
    logs, _ = mind.parse_behaviors(lines)
    rewritten = [mind.format_behavior_line(log).encode() for log in logs]
    logs2, errors2 = mind.parse_behaviors(rewritten)
    assert errors2 == []
    assert logs2 == logs


def test_compute_stats_empty_corpora():
    stats = mind.compute_stats([], [])
    assert (stats.users, stats.news, stats.impressions) == (0, 0, 0)
    assert (stats.click_behaviors, stats.words) == (0, 0)


def test_compute_stats_hand_counted():
    news, _ = mind.parse_news([
        b"N1\tc\ts\ttwo words\tthree more words\tu\t[]\t[]",
        b"N2\tc\ts\tone\t\tu\t[]\t[]",
    ])
    logs, _ = mind.parse_behaviors([
        b"1\tU1\tt\tN1 N2\tN3-1 N4-0",
        b"2\tU1\tt\t\tN5-0 N6-1 N7-1",
        b"3\tU2\tt\tN1\tN8-0",
    ])
    stats = mind.compute_stats(news, logs)
    assert stats.users == 2
    assert stats.news == 2
    assert stats.impressions == 3
    # history entries (2 + 0 + 1) plus clicked candidates (1 + 2 + 0)
    assert stats.click_behaviors == 6
    assert stats.words == 6


def test_ranks_from_scores_descending():
    assert mind.ranks_from_scores([0.9, 0.1, 0.5]) == [1, 3, 2]


def test_write_predictions_format_and_order():
    sink = io.StringIO()
    mind.write_predictions([("10", [1]), ("9", [1, 3, 2]), ("2", [1])], sink)
    assert sink.getvalue() == "2 [1]\n9 [1,3,2]\n10 [1]\n"


def test_write_predictions_orders_ids_without_int():
    """ASCII-digit ids sort numerically, leading zeros tying ("007" and "7"
    keep their input order), even past int()'s digit limit; other ids,
    non-ASCII digits included, follow by code point."""
    huge = "9" * 5000
    ids = ["b", "\u00b2", huge, "007", "10", "7", "9", "0", "a", "00"]
    sink = io.StringIO()
    mind.write_predictions([(i, [1]) for i in ids], sink)
    got = [line.split(" ")[0] for line in sink.getvalue().splitlines()]
    assert got == ["0", "00", "007", "7", "9", "10", huge, "a", "b", "\u00b2"]


def test_write_predictions_single_candidate():
    sink = io.StringIO()
    mind.write_predictions([("I2", [1])], sink)
    assert sink.getvalue() == "I2 [1]\n"


def test_write_predictions_rejects_duplicate_ranks():
    with pytest.raises(NotAPermutation):
        mind.write_predictions([("I1", [1, 1, 2])], io.StringIO())


def test_predictions_round_trip():
    ranked = [("1", [1, 3, 2]), ("2", [2, 1]), ("3", [1])]
    sink = io.StringIO()
    mind.write_predictions(ranked, sink)
    again = mind.read_predictions(sink.getvalue().splitlines())
    assert [(i, list(r)) for i, r in ranked] == again


class TestLoadUserClicks:
    """One user's clicks, read without parsing the other users' lines."""

    LINES = [
        "1\tU1\tt\tN1 N2\tN5-1 N7-0",
        "2\tU2\tt\tN3\tN8-x",             # malformed, another user
        "3\tU2\tt",                         # too few columns, another user
        "4\tU1\tt\tN1 N2 N5\tN9-2",       # malformed, the user: left out
        "5\tU2\tt\tN3\tN6-1",
        "6\tU1\tt\tN1 N2 N5\tN6-0 N4-1 N9-1",
        "7\tU1\tt\tN1\tN6-1 extra\tcolumn",  # six columns, the user: left out
        "8\tU3\tt\t\tN4-0 N5-1",
    ]

    def write(self, tmp_path, lines, bom=False, tail=b""):
        path = tmp_path / "behaviors.tsv"
        path.write_bytes((codecs.BOM_UTF8 if bom else b"") + "\n".join(lines).encode()
                         + b"\n" + tail)
        return str(path)

    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    @pytest.mark.parametrize("user", ["U1", "U2", "U3"])
    def test_equals_the_full_parse(self, tmp_path, user, bom):
        path = self.write(tmp_path, self.LINES, bom)
        want = mind.user_click_sequences(mind.load_behaviors(path)[0])[user]
        assert mind.load_user_clicks(path, user) == want
        if user == "U1":
            assert want == ["N1", "N2", "N5", "N4", "N9"]

    def test_user_on_a_marked_first_line_is_found(self, tmp_path):
        path = self.write(tmp_path, self.LINES, bom=True)
        assert mind.load_user_clicks(path, "U1")[:3] == ["N1", "N2", "N5"]

    @pytest.mark.parametrize("user", ["U9", "t", "U1\tt", "", "U\xff", "U\udcff"])
    def test_unknown_user_gives_none(self, tmp_path, user):
        # the last line is not UTF-8, so neither reader keeps its user
        path = self.write(tmp_path, self.LINES, tail=b"9\tU\xff\tt\t\tN1-1\n")
        assert len(mind.load_behaviors(path)[1]) == 5
        assert user not in mind.user_click_sequences(mind.load_behaviors(path)[0])
        assert mind.load_user_clicks(path, user) is None

    def test_only_malformed_lines_of_the_user_give_none(self, tmp_path):
        path = self.write(tmp_path, ["1\tU1\tt\tN1\tN2-7", "2\tU2\tt\t\tN3-1"])
        assert mind.load_user_clicks(path, "U1") is None

    def test_missing_file_is_a_missing_input(self, tmp_path):
        with pytest.raises(MissingInput):
            mind.load_user_clicks(str(tmp_path / "absent.tsv"), "U1")


class TestCheckpoint:
    def test_float32_layout_names_no_dtype(self, tmp_path):
        path = str(tmp_path / "c.bin")
        mind.write_checkpoint(path, b"MAGIC123", {"b": 1, "a": [2]},
                              [np.array([1.5, -2.0]), np.array([[0.25]])])
        blob = json.dumps({"a": [2], "b": 1}, sort_keys=True).encode()
        want = (b"MAGIC123" + struct.pack("<I", len(blob)) + blob
                + np.array([1.5, -2.0, 0.25], dtype="<f4").tobytes())
        with open(path, "rb") as fh:
            assert fh.read() == want
        header, values = mind.read_checkpoint(path, b"MAGIC123", "a test file")
        assert header == {"a": [2], "b": 1}
        assert values.dtype == np.dtype("<f4") and values.tolist() == [1.5, -2.0, 0.25]

    def test_float32_round_trips_every_bit(self, tmp_path):
        path = str(tmp_path / "c.bin")
        matrix = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        mind.write_checkpoint(path, b"MAGIC123", {"n": 3}, [matrix])
        header, values = mind.read_checkpoint(path, b"MAGIC123", "a test file")
        assert header == {"n": 3}
        assert values.tobytes() == matrix.tobytes()

    def test_payload_of_part_values_is_a_config_error(self, tmp_path):
        path = tmp_path / "c.bin"
        mind.write_checkpoint(str(path), b"MAGIC123", {}, [np.zeros(2)])
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ConfigError, match="6 payload bytes, not whole float32 values"):
            mind.read_checkpoint(str(path), b"MAGIC123", "a test file")
