"""Cleaning, tokenization, stopword removal, and stemming behavior."""

import os
import sys
import tempfile
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newsrec.porter as porter
import newsrec.synth as synth
import newsrec.textprep as tp
from newsrec.errors import AllTokensRemoved
from newsrec.mind import NewsArticle, load_news
from newsrec.porter import stem

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def art(news_id, title, abstract="Some abstract text.", category="news"):
    return NewsArticle(news_id, category, "sub", title, abstract, "u", "[]", "[]")


class TestCleanCorpus:
    def test_short_title_removed(self):
        kept, report = tp.clean_corpus([art("N1", "Go")])
        assert kept == []
        assert report.removed_short_title == 1
        assert report.kept == 0

    def test_three_token_title_removed_four_kept(self):
        kept, report = tp.clean_corpus([
            art("N1", "one two three"),
            art("N2", "one two three four"),
        ])
        assert [a.news_id for a in kept] == ["N2"]
        assert report.removed_short_title == 1

    def test_duplicate_id_drops_second(self):
        first = art("N1", "first version of title")
        second = art("N1", "second version of title")
        kept, report = tp.clean_corpus([first, second])
        assert kept == [first]
        assert report.removed_duplicates == 1

    def test_hand_counted_fixture(self):
        records = [
            art("N1", "a perfectly fine news title"),
            art("N2", "another fine news title here"),
            art("N1", "duplicate id should be dropped"),
            art("N3", "title with empty abstract one", abstract=""),
            art("N4", "title with blank abstract two", abstract="   "),
            art("N5", "too short"),
            art("N6", "a third fine news title"),
            art("N7", "a fourth fine news title"),
            art("N8", "a fifth fine news title"),
            art("N9", "a sixth fine news title"),
        ]
        kept, report = tp.clean_corpus(records)
        assert report.kept == 6
        assert report.removed_duplicates == 1
        assert report.removed_nan == 2
        assert report.removed_short_title == 1
        assert report.total == len(records)
        assert [a.news_id for a in kept] == ["N1", "N2", "N6", "N7", "N8", "N9"]

    def test_idempotent(self):
        records = [art("N1", "one two three four"), art("N1", "dup"), art("N2", "x y")]
        once, _ = tp.clean_corpus(records)
        twice, report = tp.clean_corpus(once)
        assert twice == once
        assert report.kept == len(once)
        assert report.removed_duplicates == report.removed_nan == 0


class TestTokenize:
    def test_lowercase_and_punctuation_stripping(self):
        assert tp.tokenize("PGA Tour's winners!") == ["pga", "tour's", "winners"]

    def test_empty_string(self):
        assert tp.tokenize("") == []

    def test_whitespace_collapse(self):
        assert tp.tokenize("  a  b ") == ["a", "b"]

    def test_interior_apostrophe_and_hyphen_retained(self):
        assert tp.tokenize("state-of-the-art, isn't it?") == ["state-of-the-art", "isn't", "it"]

    def test_pure_punctuation_token_dropped(self):
        assert tp.tokenize("hello -- world") == ["hello", "world"]

    def test_no_alphanumeric_character_is_punctuation(self):
        """``tokenize`` keeps a token with alphanumeric edges whole, which is
        only right if no such character is in a P* category."""
        clashes = [hex(cp) for cp in range(sys.maxunicode + 1)
                   if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
        assert clashes == []

    EDGE_TEXTS = [
        '"quoted" \'single\' «guillemets» ¿qué? ¡sí! ‘curly’ “double”',
        "state-of-the-art isn't -lead trail- 'tis o'clock rock'n'roll",
        "42 3.14 -7 x² ²x 10% $5 #tag @user (paren) [bracket] {brace}",
        "🙂 smile🙂 🙂smile ✓done done✓ …ellipsis ellipsis…",
        "-- ... !? ¿¡ «» ‘’ “” ' \" - — – ・ 。 、",
        "Ünïcödé ÉCOLE straße İstanbul ǅemal ﬁne",
        "a.b.c. U.S. e.g., (a) a) -a- _under_ __init__",
    ]

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_matches_always_stripping_reference(self, text):
        want = [tok for tok in map(tp._strip_punct, text.lower().split()) if tok]
        assert tp.tokenize(text) == want


class TestStopwords:
    def test_removal_preserves_order(self, stopwords):
        assert tp.remove_stopwords(["the", "cat", "sat"], stopwords) == ["cat", "sat"]

    def test_empty_input(self, stopwords):
        assert tp.remove_stopwords([], stopwords) == []

    def test_no_stopwords_present(self, stopwords):
        assert tp.remove_stopwords(["skin", "tags"], stopwords) == ["skin", "tags"]

    def test_lexicon_size_pinned(self, stopwords):
        assert len(stopwords) == 179

    def test_explicit_path_override(self, tmp_path):
        lex = tmp_path / "stop.txt"
        lex.write_text("foo\nbar\n", encoding="utf-8")
        loaded = tp.load_stopwords(str(lex))
        assert loaded == frozenset({"foo", "bar"})


class TestStem:
    # full-pipeline outputs of the original rule set
    VECTORS = {
        "caresses": "caress",
        "ponies": "poni",
        "ties": "ti",
        "cats": "cat",
        "cat": "cat",
        "agreed": "agre",
        "feed": "feed",
        "plastered": "plaster",
        "motoring": "motor",
        "sing": "sing",
        "happy": "happi",
        "sky": "sky",
        "relational": "relat",
        "conditional": "condit",
        "rational": "ration",
        "electrical": "electr",
        "hopeful": "hope",
        "goodness": "good",
        "formalize": "formal",
        "tags": "tag",
        "according": "accord",
        "dermatologist": "dermatologist",
    }

    def test_reference_vectors(self):
        got = {w: stem(w) for w in self.VECTORS}
        assert got == self.VECTORS

    def test_total_on_edge_inputs(self):
        for w in ("", "a", "is", "oo", "y", "x"):
            assert isinstance(stem(w), str)

    def test_deterministic(self):
        assert stem("running") == stem("running")


def ungated_apply_table(word, rules):
    """Step 2/3 as a plain first-match scan of the rules, in order."""
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem_ = word[: -len(suffix)]
            if porter._measure(stem_) > 0:
                return stem_ + replacement
            return word
    return word


def ungated_step4(word):
    """Step 4 as a plain first-match scan of its suffixes, in order."""
    for suffix in porter._STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem_ = word[: -len(suffix)]
            if porter._measure(stem_) <= 1:
                return word
            if suffix == "ion" and not stem_.endswith(("s", "t")):
                return word
            return stem_
    return word


def ungated_step5b(word):
    """Step 5b with the measure taken before the double-"l" test."""
    if porter._measure(word) > 1 and porter._ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def ungated_stem(token):
    if len(token) <= 2:
        return token
    word = porter._step1c(porter._step1b(porter._step1a(token)))
    word = ungated_apply_table(word, porter._STEP2_RULES)
    word = ungated_apply_table(word, porter._STEP3_RULES)
    word = ungated_step4(word)
    return ungated_step5b(porter._step5a(word))


class TestGatedSuffixScans:
    """Steps 2-4 check all of a step's suffixes in one ``endswith`` call,
    then look the first matching rule up by the word's endings, and step
    5b tests for a final "ll" before it takes the measure; results must be
    the plain scans'."""

    STEMS = {0: ("tr", "sky", "ee"), 1: ("troubl", "oat", "pass"), 2: ("privat", "oaten", "relat")}
    SUFFIXES = sorted({s for s, _ in porter._STEP2_RULES + porter._STEP3_RULES}
                      | set(porter._STEP4_SUFFIXES) | {"ll", "l"})

    def test_stems_have_the_measures_they_are_filed_under(self):
        for m, stems in self.STEMS.items():
            assert [porter._measure(s) for s in stems] == [m] * len(stems)

    def test_every_suffix_on_stems_of_measure_0_1_2(self):
        words = [s + suffix for stems in self.STEMS.values() for s in stems
                 for suffix in self.SUFFIXES]
        for word in words:
            assert porter._apply_table(word, porter._STEP2) == \
                ungated_apply_table(word, porter._STEP2_RULES), word
            assert porter._apply_table(word, porter._STEP3) == \
                ungated_apply_table(word, porter._STEP3_RULES), word
            assert porter._step4(word) == ungated_step4(word), word
            assert porter._step5b(word) == ungated_step5b(word), word
            assert stem(word) == ungated_stem(word), word

    def test_every_token_of_the_desk_fixture(self, tmp_path):
        articles, _ = load_news(synth.generate_corpus(str(tmp_path)).news)
        tokens = {tok for a in articles for text in (a.title, a.abstract)
                  for tok in tp.tokenize(text)}
        assert len(tokens) > 100
        assert {t: stem(t) for t in tokens} == {t: ungated_stem(t) for t in tokens}

    def test_every_token_of_an_embed_benchmark_corpus(self, tmp_path, monkeypatch):
        """The distinct tokens of a seeded corpus shaped like the ``embed``
        workload's, whose words carry English suffixes."""
        monkeypatch.syspath_prepend(PERFBENCH)
        from corpus import CorpusSpec, write_corpus

        spec = CorpusSpec(n_news=3000, roots_per_category=300, n_users=200,
                          impressions_per_user=2)
        articles, _ = load_news(write_corpus(str(tmp_path), spec, seed=7).news)
        tokens = {tok for a in articles for text in (a.title, a.abstract)
                  for tok in tp.tokenize(text)}
        assert len(tokens) > 10_000
        assert {t: stem(t) for t in tokens} == {t: ungated_stem(t) for t in tokens}

    def test_reference_vectors_agree(self):
        assert {w: ungated_stem(w) for w in TestStem.VECTORS} == TestStem.VECTORS


class TestPreprocess:
    def test_headline_keeps_content_words_and_drops_stopwords(self, stopwords):
        headline = "How to Get Rid of Skin Tags, According to a Dermatologist"
        tokens = tp.tokenize(headline)
        kept = tp.remove_stopwords(tokens, stopwords)
        assert sorted(set(tokens) - set(kept)) == ["a", "how", "of", "to"]
        assert kept == ["get", "rid", "skin", "tags", "according", "dermatologist"]

    def test_short_headline_pipeline(self, stopwords):
        assert tp.normalize_text("Flu season is here", stopwords) == ["flu", "season"]

    def test_all_stopword_title_raises(self, stopwords):
        with pytest.raises(AllTokensRemoved):
            tp.preprocess_article(art("N1", "to be or not to be"), stopwords)

    def test_outputs_lowercase_and_stopword_free(self, stopwords):
        news = tp.preprocess_article(
            art("N1", "The Quick Brown Fox Jumps", abstract="Over the LAZY dog."),
            stopwords,
        )
        for tok in news.title_tokens + news.abstract_tokens:
            assert tok == tok.lower()
            assert tok not in stopwords
            assert tok and not any(ch.isspace() for ch in tok)

    def test_token_order_preserved(self, stopwords):
        news = tp.preprocess_article(art("N1", "alpha beta gamma delta"), stopwords)
        assert news.title_tokens == ("alpha", "beta", "gamma", "delta")


class TestStemMemo:
    ARTICLES = [
        art("N1", "Runners running in the running season", abstract="The runner runs."),
        art("N2", "to be or not to be", abstract="Running is never stemmed here."),
        art("N3", "Seasonal runs for seasoned runners", abstract="Runs, running; RUNNING!"),
        art("N4", "Running running running running"),
    ]

    def test_corpus_matches_articlewise_preprocessing_without_memo(self, stopwords):
        expected, dropped = [], 0
        for article in self.ARTICLES:
            try:
                expected.append(tp.preprocess_article(article, stopwords))
            except AllTokensRemoved:
                dropped += 1
        assert tp.preprocess_corpus(self.ARTICLES, stopwords) == (expected, dropped)
        assert dropped == 1

    def test_each_distinct_surviving_token_is_stemmed_once(self, stopwords, monkeypatch):
        calls = Counter()

        def counting_stem(token):
            calls[token] += 1
            return stem(token)

        monkeypatch.setattr(tp, "stem", counting_stem)
        tp.preprocess_corpus(self.ARTICLES, stopwords)
        surviving = set()
        for article in self.ARTICLES:
            title = tp.remove_stopwords(tp.tokenize(article.title), stopwords)
            if title:  # an emptied title drops the record before its abstract
                surviving.update(title)
                surviving.update(tp.remove_stopwords(tp.tokenize(article.abstract), stopwords))
        assert calls == Counter(surviving)
        assert "never" not in calls


def test_tokenized_file_round_trip(tmp_path, stopwords):
    records = [
        tp.preprocess_article(art("N1", "alpha beta gamma delta"), stopwords),
        tp.preprocess_article(art("N2", "Flu season arrives early again"), stopwords),
    ]
    path = tmp_path / "tokenized.tsv"
    tp.save_tokenized(str(path), records)
    assert tp.load_tokenized(str(path)) == records


# any character a MIND field can hold: all but tab, newline and the
# surrogates UTF-8 cannot encode, with the other line separators drawn often
LINE_SEPARATORS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
field_chars = st.one_of(st.sampled_from(LINE_SEPARATORS),
                        st.characters(exclude_characters="\t\n", exclude_categories=("Cs",)))
raw_text = st.text(field_chars, max_size=12)
# a read drops a leading byte-order mark, and mind rejects a blank news id
news_ids = st.text(field_chars, min_size=1, max_size=6).filter(
    lambda nid: nid.strip() and not nid.startswith("\ufeff"))
token_text = st.lists(st.text(st.characters(exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                              min_size=1, max_size=5).filter(lambda tok: tok.split() == [tok]),
                      max_size=4).map(" ".join)
records = st.builds(tp.TokenizedNews, news_ids, raw_text, raw_text, raw_text, raw_text,
                    token_text.filter(bool), token_text)


@settings(max_examples=100, deadline=None)
@given(st.lists(records, max_size=5, unique_by=lambda news: news.news_id))
def test_tokenized_file_round_trips_any_raw_text(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/tokenized.tsv"
        tp.save_tokenized(path, corpus)
        assert tp.load_tokenized(path) == corpus
