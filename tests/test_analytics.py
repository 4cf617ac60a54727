"""Exact-counting summaries: categories, word frequencies, title lengths."""

import csv
import io
import json

import numpy as np
import pytest

import newsrec.analytics as an
from newsrec.errors import EmptyCorpus, UnknownCategory
from newsrec.textprep import TokenizedNews


def item(news_id, category="sports", subcategory="golf", title=("alpha", "beta"),
         abstract=(), raw_title="Alpha beta gamma delta"):
    return TokenizedNews(news_id, category, subcategory, raw_title, "raw abstract",
                         " ".join(title), " ".join(abstract))


class TestCategoryDistribution:
    def test_hand_counted_rows(self):
        corpus = [
            item("N1", "sports", "golf"),
            item("N2", "news", "politics"),
            item("N3", "sports", "golf"),
        ]
        dist = an.category_distribution(corpus)
        assert dist.rows == (("sports", "golf", 2), ("news", "politics", 1))

    def test_single_item(self):
        dist = an.category_distribution([item("N1")])
        assert dist.rows == (("sports", "golf", 1),)

    def test_all_items_in_one_pair(self):
        dist = an.category_distribution([item(f"N{i}") for i in range(5)])
        assert dist.rows == (("sports", "golf", 5),)
        assert dist.total == 5

    def test_count_ties_order_by_name(self):
        corpus = [item("N1", "b", "x"), item("N2", "a", "y")]
        dist = an.category_distribution(corpus)
        assert dist.rows == (("a", "y", 1), ("b", "x", 1))

    def test_total_equals_corpus_size(self):
        rng = np.random.default_rng(0)
        corpus = [
            item(f"N{i}", f"c{rng.integers(3)}", f"s{rng.integers(2)}")
            for i in range(30)
        ]
        assert an.category_distribution(corpus).total == 30

    def test_order_insensitive(self):
        rng = np.random.default_rng(1)
        corpus = [item(f"N{i}", f"c{rng.integers(3)}") for i in range(20)]
        shuffled = list(corpus)
        rng.shuffle(shuffled)
        assert an.category_distribution(corpus) == an.category_distribution(shuffled)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            an.category_distribution([])


class TestWordFrequencies:
    def corpus(self):
        return [
            item("N1", "health", title=("flu", "season"), abstract=("flu",)),
            item("N2", "health", title=("flu",), abstract=()),
            item("N3", "sports", title=("golf",), abstract=("flu",)),
        ]

    def test_top_k_one(self):
        table = an.word_frequencies(self.corpus(), "health", top_k=1)
        assert table.rows == (("flu", 3),)

    def test_top_k_beyond_vocabulary_returns_all(self):
        table = an.word_frequencies(self.corpus(), "health", top_k=99)
        assert table.rows == (("flu", 3), ("season", 1))

    def test_counts_cover_title_and_abstract(self):
        table = an.word_frequencies(self.corpus(), "sports", top_k=10)
        assert table.rows == (("flu", 1), ("golf", 1))

    def test_unknown_category_raises(self):
        with pytest.raises(UnknownCategory):
            an.word_frequencies(self.corpus(), "finance", top_k=5)

    def test_frequency_ties_sort_lexicographically(self):
        corpus = [item("N1", "c", title=("zebra", "apple"), abstract=())]
        table = an.word_frequencies(corpus, "c", top_k=10)
        assert table.rows == (("apple", 1), ("zebra", 1))


class TestTitleHistogram:
    def test_hand_counted_lengths(self):
        corpus = [
            item("N1", raw_title="a b c d"),
            item("N2", raw_title="e f g h"),
            item("N3", raw_title="i j k l m n o"),
        ]
        hist = an.title_length_histogram(corpus, use_raw_titles=True)
        assert hist.counts == {4: 2, 7: 1}
        assert hist.total == 3
        assert hist.mean() == pytest.approx(5.0)

    def test_single_title(self):
        hist = an.title_length_histogram([item("N1", raw_title="just four words here")])
        assert hist.counts == {4: 1}

    def test_normalized_mode_counts_tokens(self):
        corpus = [item("N1", title=("alpha", "beta"), raw_title="one two three four five")]
        raw = an.title_length_histogram(corpus, use_raw_titles=True)
        norm = an.title_length_histogram(corpus, use_raw_titles=False)
        assert raw.counts == {5: 1}
        assert norm.counts == {2: 1}

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            an.title_length_histogram([])


class TestSerialization:
    def test_categories_csv(self):
        dist = an.category_distribution([item("N1"), item("N2", "news", "world")])
        text = an.categories_csv(dist)
        lines = text.splitlines()
        assert lines[0] == "category,subcategory,count"
        assert set(lines[1:]) == {"sports,golf,1", "news,world,1"}

    def test_wordfreq_csv(self):
        table = an.word_frequencies([item("N1", "c", title=("flu", "flu"), abstract=())],
                                    "c", top_k=5)
        assert an.wordfreq_csv(table) == "token,count\nflu,2\n"

    def test_comma_and_quote_fields_stay_one_field(self):
        corpus = [item("N1", 'say "hi", all', title=("1,000", "flu"), abstract=())]
        table = an.word_frequencies(corpus, 'say "hi", all', top_k=5)
        words = list(csv.reader(io.StringIO(an.wordfreq_csv(table))))
        assert words == [["token", "count"], ["1,000", "1"], ["flu", "1"]]
        rows = list(csv.reader(io.StringIO(an.categories_csv(an.category_distribution(corpus)))))
        assert rows == [["category", "subcategory", "count"], ['say "hi", all', "golf", "1"]]

    def test_wordfreq_filenames_never_collide(self):
        names = ["a/b", "a%2Fb", "a%252Fb", "a%b", "a%25b", "\0", "%00", "/", "%2F", "%", ""]
        files = [an.wordfreq_filename(name) for name in names]
        assert len(set(files)) == len(names)
        assert not any("/" in f or "\0" in f for f in files)

    def test_title_hist_csv_sorted_by_length(self):
        corpus = [item("N1", raw_title="a b c d e f g"), item("N2", raw_title="a b c d")]
        hist = an.title_length_histogram(corpus)
        assert an.title_hist_csv(hist) == "length,count\n4,1\n7,1\n"

    def test_json_bundle(self):
        corpus = [item("N1", "health", title=("flu",), abstract=())]
        dist = an.category_distribution(corpus)
        table = an.word_frequencies(corpus, "health", top_k=3)
        hist = an.title_length_histogram(corpus)
        payload = json.loads(an.analytics_json(dist, [table], hist))
        assert payload["categories"][0]["count"] == 1
        assert payload["word_frequencies"]["health"][0] == {"token": "flu", "count": 1}
        assert payload["title_histogram"]["counts"] == {"4": 1}
        assert payload["title_histogram"]["mean"] == 4.0


def test_fixture_corpus_sum_invariants(prepared):
    corpus = prepared["corpus"]
    dist = an.category_distribution(corpus)
    assert dist.total == len(corpus)
    hist = an.title_length_histogram(corpus, use_raw_titles=True)
    assert hist.total == len(corpus)
    for category in {n.category for n in corpus}:
        table = an.word_frequencies(corpus, category, top_k=10 ** 9)
        in_cat = [n for n in corpus if n.category == category]
        want = sum(len(n.title_tokens) + len(n.abstract_tokens) for n in in_cat)
        assert sum(count for _, count in table.rows) == want
