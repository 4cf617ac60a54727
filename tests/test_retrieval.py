"""Recommendation ranking and nearest-neighbor similarity search."""

import collections
import json

import numpy as np
import pytest

import newsrec.model as mdl
import newsrec.retrieval as ret
import newsrec.textprep as tp
from newsrec.errors import ConfigError, EmptyCandidatePool, NoKnownTokens
from newsrec.textprep import TokenizedNews

from conftest import make_lookup


def simple_normalize(text):
    return text.lower().split()


def crafted_index(seed=0):
    """Six items over two disjoint vocabularies, plus one duplicate title."""
    lookup = make_lookup([f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)],
                         dim=4, seed=seed)
    config = mdl.ModelConfig(heads=2, d_head=3, d_attn=4, max_title_tokens=6,
                             max_history=4, seed=2)
    params = mdl.init_params(4, config)
    items = [
        TokenizedNews("N1", "tech", "s", "x0 x1", "x2 body one", "x0 x1", "x2"),
        TokenizedNews("N2", "tech", "s", "x1 x2", "x3 body two", "x1 x2", "x3"),
        TokenizedNews("N3", "tech", "s", "x0 x3", "x1 body three", "x0 x3", "x1"),
        TokenizedNews("N4", "food", "s", "y0 y1", "y2 body four", "y0 y1", "y2"),
        TokenizedNews("N5", "food", "s", "y1 y2", "y3 body five", "y1 y2", "y3"),
        TokenizedNews("N6", "food", "s", "twin headline", "duplicate tokens", "y0 y1", "y3"),
    ]
    return items, lookup, params, ret.CorpusIndex(items, lookup, params)


class TestCorpusIndex:
    def test_unencodable_items_are_skipped(self):
        items, lookup, params, _ = crafted_index()
        items = items + [TokenizedNews("N7", "tech", "s", "zzz", "", "zzz", "")]
        index = ret.CorpusIndex(items, lookup, params)
        assert [item.news_id for item in items if item.news_id not in index.by_id] == ["N7"]
        assert index.vector_of("N7") is None
        assert len(index) == 6

    def test_vectors_match_direct_encoding(self):
        items, lookup, params, index = crafted_index()
        for item in items:
            want = mdl.news_vector(item.title_tokens, lookup, params)
            assert np.array_equal(index.vector_of(item.news_id), want)


class TestRecommend:
    def test_pool_equal_to_history_raises(self):
        _, _, params, index = crafted_index()
        with pytest.raises(EmptyCandidatePool, match="0 are not in the corpus index and 2 are"):
            ret.recommend(["N1", "N2"], ["N1", "N2"], index, params)

    def test_top_n_larger_than_pool_returns_everything(self):
        _, _, params, index = crafted_index()
        rec = ret.recommend(["N1"], ["N2", "N3", "N4"], index, params, top_n=50)
        assert len(rec.entries) == 3

    def test_entries_sorted_by_recomputed_scores(self):
        items, lookup, params, index = crafted_index()
        rec = ret.recommend(["N1", "N4"], [i.news_id for i in items], index, params)
        (uvec,) = mdl.user_vectors(index.matrix, [[index.by_id["N1"], index.by_id["N4"]]], params)
        for nid, score in rec.entries:
            assert score == pytest.approx(float(uvec @ index.vector_of(nid)), rel=1e-12)
        scores = [s for _, s in rec.entries]
        assert scores == sorted(scores, reverse=True)
        assert {nid for nid, _ in rec.entries} == {"N2", "N3", "N5", "N6"}

    @pytest.mark.parametrize("heads, d_head", [(2, 8), (8, 25), (16, 16)])
    def test_scores_equal_the_plain_dot_bit_for_bit(self, heads, d_head):
        """The pool's scores come from one ``click_scores`` call; each must be
        the float of the plain 1-D dot product, whatever the width d_model."""
        tokens = [f"w{i}" for i in range(30)]
        lookup = make_lookup(tokens, dim=8, seed=heads)
        params = mdl.init_params(8, mdl.ModelConfig(heads=heads, d_head=d_head, d_attn=16,
                                                    max_history=5, seed=heads))
        rng = np.random.default_rng(d_head)
        items = [TokenizedNews(f"N{i}", "c", "s", f"title {i}", "",
                               " ".join(rng.choice(tokens, size=4)), "") for i in range(40)]
        index = ret.CorpusIndex(items, lookup, params)
        history = ["N3", "N17", "N3", "N999", "N25"]
        pool = ["N5", "N17", "N5", "N888", "N3", *(f"N{i}" for i in range(40, 0, -1)), "N0"]
        rec = ret.recommend(history, pool, index, params, top_n=100)
        rows = [index.by_id[nid] for nid in mdl.usable_history(history, index.by_id, 5)]
        (uvec,) = mdl.user_vectors(index.matrix, [rows], params)
        want = {nid: float(uvec @ index.vector_of(nid))
                for nid in pool if nid in index.by_id and nid not in history}
        assert len(rec.entries) == len(want) == 37
        for nid, score in rec.entries:
            assert type(score) is float
            assert score.hex() == want[nid].hex(), nid

    def test_cold_start_orders_by_news_id(self):
        items, _, params, index = crafted_index()
        rec = ret.recommend([], [i.news_id for i in items], index, params)
        assert rec.generated_from == 0
        assert all(score == 0.0 for _, score in rec.entries)
        assert [nid for nid, _ in rec.entries] == ["N1", "N2", "N3", "N4", "N5", "N6"]

    def test_each_top_n_is_a_prefix_of_the_full_ranking(self):
        items, _, params, index = crafted_index()
        pool = [i.news_id for i in items]
        full = ret.recommend(["N1", "N4"], pool, index, params, top_n=len(pool)).entries
        for top_n in range(1, len(pool) + 1):
            got = ret.recommend(["N1", "N4"], pool, index, params, top_n=top_n).entries
            assert got == full[:top_n]

    def test_duplicate_pool_ids_appear_once(self):
        _, _, params, index = crafted_index()
        rec = ret.recommend(["N1"], ["N2", "N2", "N3"], index, params)
        assert [nid for nid, _ in rec.entries].count("N2") == 1

    def test_empty_pool_raises(self):
        _, _, params, index = crafted_index()
        with pytest.raises(EmptyCandidatePool):
            ret.recommend(["N1"], [], index, params)

    def test_planted_preference_user_gets_own_category(self, prepared, trained):
        index = trained["index"]
        params = trained["params"]
        by_id = {n.news_id: n for n in prepared["corpus"]}
        log = prepared["train_logs"][0]
        history = [nid for nid in log.history if nid in index.by_id]
        planted = collections.Counter(
            by_id[nid].category for nid in history).most_common(1)[0][0]
        rec = ret.recommend(history, list(index.by_id), index, params, top_n=10)
        got = [by_id[nid].category for nid, _ in rec.entries]
        assert sum(c == planted for c in got) >= 8


class TestSimilar:
    def test_query_by_news_id_excludes_itself(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N1", index, lambda _: lookup, params, simple_normalize, top_n=10)
        ids = [nb.news_id for nb in res.neighbors]
        assert "N1" not in ids
        assert len(ids) == 5

    @pytest.mark.parametrize("query", ["N1", "N5", "twin headline", "x0 y1"])
    def test_each_top_n_is_a_prefix_of_the_full_list(self, query):
        """Also when the excluded query item is among the nearest."""
        _, lookup, params, index = crafted_index()
        def neighbors(top_n):
            return ret.similar_news(query, index, lambda _: lookup, params, simple_normalize,
                                    top_n=top_n).neighbors
        full = neighbors(len(index))
        for top_n in range(1, len(index) + 1):
            assert neighbors(top_n) == full[:top_n]

    def test_query_by_exact_headline_resolves_to_item(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("x0 x1", index, lambda _: lookup, params, simple_normalize)
        assert all(nb.news_id != "N1" for nb in res.neighbors)

    def test_small_corpus_caps_neighbor_count(self):
        items, lookup, params, _ = crafted_index()
        index = ret.CorpusIndex(items[:2], lookup, params)
        res = ret.similar_news("x0 x3", index, lambda _: lookup, params, simple_normalize, top_n=5)
        assert len(res.neighbors) == 2

    def test_distances_non_decreasing(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N2", index, lambda _: lookup, params, simple_normalize, top_n=10)
        d = [nb.distance for nb in res.neighbors]
        assert d == sorted(d)

    def test_euclidean_distances_match_direct_formula(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N2", index, lambda _: lookup, params, simple_normalize, top_n=10)
        q = index.vector_of("N2")
        for nb in res.neighbors:
            want = float(np.linalg.norm(index.vector_of(nb.news_id) - q))
            assert nb.distance == pytest.approx(want, rel=1e-12)

    def test_duplicate_title_tokens_have_distance_zero(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N4", index, lambda _: lookup, params, simple_normalize, top_n=1)
        assert res.neighbors[0].news_id == "N6"
        assert res.neighbors[0].distance == 0.0

    def test_cosine_distance_metric(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N1", index, lambda _: lookup, params, simple_normalize,
                               top_n=10, metric="cosine-distance")
        for nb in res.neighbors:
            assert -1e-12 <= nb.distance <= 2.0 + 1e-12
        d = [nb.distance for nb in res.neighbors]
        assert d == sorted(d)

    def test_unknown_metric_rejected(self):
        _, lookup, params, index = crafted_index()
        with pytest.raises(ConfigError):
            ret.similar_news("N1", index, lambda _: lookup, params, simple_normalize, metric="manhattan")

    def test_gibberish_query_raises(self):
        _, lookup, params, index = crafted_index()
        with pytest.raises(NoKnownTokens):
            ret.similar_news("zzz qqq", index, lambda _: lookup, params, simple_normalize)

    def test_majority_of_neighbors_share_query_category(self, trained, glove_lookup, stopwords):
        index = trained["index"]
        params = trained["params"]
        item = index.items[0]
        res = ret.similar_news(
            item.news_id, index, lambda _: glove_lookup, params,
            lambda t: tp.normalize_text(t, stopwords), top_n=10)
        same = sum(nb.category == item.category for nb in res.neighbors)
        assert same > len(res.neighbors) // 2


class TestRendering:
    def test_snippet_truncates_to_width_with_ellipsis(self):
        long = "z" * 60
        assert ret.abstract_snippet(long) == "z" * 48 + "..."
        assert ret.abstract_snippet("short") == "short"

    def test_similarity_rendering_format(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N1", index, lambda _: lookup, params, simple_normalize, top_n=2)
        text = ret.render_similarity(res)
        lines = text.splitlines()
        assert lines[0] == "===== Recommended News : ====="
        assert lines[1] == "Query : N1"
        assert lines[2].startswith("1. ")
        assert lines[3].startswith("2. ")
        parts = lines[2].split(" | ")
        assert len(parts) == 4
        whole, frac = parts[3].split(".")
        assert len(frac) == 6

    def test_similarity_json_rounds_distances(self):
        _, lookup, params, index = crafted_index()
        res = ret.similar_news("N1", index, lambda _: lookup, params, simple_normalize, top_n=3)
        payload = json.loads(ret.similarity_json(res))
        assert payload["metric"] == "euclidean"
        for nb in payload["neighbors"]:
            assert nb["distance"] == round(nb["distance"], 6)

    def test_recommendation_rendering_and_json(self):
        items, _, params, index = crafted_index()
        rec = ret.recommend(["N1"], [i.news_id for i in items], index, params,
                            top_n=3, user_id="U9")
        text = ret.render_recommendations(rec, index)
        assert text.splitlines()[0] == "===== Recommended News : ====="
        assert "User : U9" in text
        payload = json.loads(ret.recommendations_json(rec))
        assert payload["user_id"] == "U9"
        assert len(payload["entries"]) == 3
