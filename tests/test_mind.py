"""TSV parsing, user splitting, stats, and prediction-file round trips."""

import io

import pytest

import newsrec.mind as mind
from newsrec.errors import NotAPermutation

NEWS_LINE = "N1\tsports\tgolf\tPGA Tour winners\tA gallery.\thttp://x\t[]\t[]"


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
    articles, errors = mind.parse_news(["a\tb\tc\td\te\tf\tg"])
    assert articles == []
    assert len(errors) == 1
    assert errors[0].reason == "WrongColumnCount"
    assert errors[0].line_no == 1


def test_parse_news_mixed_fixture_counts():
    lines = []
    for i in range(20):
        if i in (4, 11):
            lines.append("truncated line without tabs")
        else:
            lines.append(f"N{i}\tnews\tworld\tTitle number {i} here\tBody {i}.\tu\t[]\t[]")
    articles, errors = mind.parse_news(lines)
    assert len(articles) == 18
    assert len(errors) == 2
    assert [e.line_no for e in errors] == [5, 12]
    assert len(articles) + len(errors) == len(lines)


def test_parse_behaviors_splits_labeled_candidates():
    line = "1\tU1\t11/11/2019 9:05:58 AM\tN100 N101\tN5-1 N7-0 N9-0"
    logs, errors = mind.parse_behaviors([line])
    assert errors == []
    (log,) = logs
    assert log.impression_id == "1"
    assert log.user_id == "U1"
    assert log.history == ("N100", "N101")
    assert log.candidates == (("N5", 1), ("N7", 0), ("N9", 0))
    assert log.clicked() == ("N5",)


def test_parse_behaviors_empty_history_is_cold_start():
    logs, errors = mind.parse_behaviors(["1\tU1\tt\t\tN5-1 N6-0"])
    assert errors == []
    assert logs[0].history == ()


def test_parse_behaviors_bad_label_suffix():
    logs, errors = mind.parse_behaviors(["1\tU1\tt\tN2\tN5-2"])
    assert logs == []
    assert errors[0].reason == "BadLabelSuffix"


def test_behavior_round_trip():
    lines = [
        "1\tU1\t11/11/2019 9:05:58 AM\tN1 N2\tN5-1 N7-0",
        "2\tU2\t11/12/2019 1:00:00 PM\t\tN8-0 N9-1 N10-0",
    ]
    logs, _ = mind.parse_behaviors(lines)
    rewritten = [mind.format_behavior_line(log) for log in logs]
    logs2, errors2 = mind.parse_behaviors(rewritten)
    assert errors2 == []
    assert logs2 == logs


def test_compute_stats_empty_corpora():
    stats = mind.compute_stats([], [])
    assert (stats.users, stats.news, stats.impressions) == (0, 0, 0)
    assert (stats.click_behaviors, stats.words) == (0, 0)


def test_compute_stats_hand_counted():
    news, _ = mind.parse_news([
        "N1\tc\ts\ttwo words\tthree more words\tu\t[]\t[]",
        "N2\tc\ts\tone\t\tu\t[]\t[]",
    ])
    logs, _ = mind.parse_behaviors([
        "1\tU1\tt\tN1 N2\tN3-1 N4-0",
        "2\tU1\tt\t\tN5-0 N6-1 N7-1",
        "3\tU2\tt\tN1\tN8-0",
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
