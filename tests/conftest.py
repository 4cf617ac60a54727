"""Shared fixtures: a small planted-preference corpus and a trained stack.

Session scope keeps the expensive pieces (corpus generation, GloVe and
model training) to a single run for the whole suite.
"""

import math

import numpy as np
import pytest

import newsrec.autodiff as ad
import newsrec.glove as gl
import newsrec.mind as mind
import newsrec.model as mdl
import newsrec.retrieval as ret
import newsrec.synth as synth
import newsrec.textprep as tp


@pytest.fixture(scope="session")
def stopwords():
    return tp.load_stopwords()


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return synth.generate_corpus(
        str(root),
        n_news=60,
        n_categories=3,
        n_users=12,
        n_impressions=120,
        words_per_category=14,
        title_words=5,
        abstract_words=10,
        history_min=4,
        history_max=6,
        seed=7,
    )


@pytest.fixture(scope="session")
def prepared(fixture_dir, stopwords):
    """Cleaned + tokenized fixture corpus with its train/test logs."""
    articles, news_errors = mind.load_news(fixture_dir.news)
    cleaned, report = tp.clean_corpus(articles)
    corpus, dropped = tp.preprocess_corpus(cleaned, stopwords)
    train_logs, _ = mind.load_behaviors(fixture_dir.behaviors_train)
    test_logs, _ = mind.load_behaviors(fixture_dir.behaviors_test)
    assert not news_errors and dropped == 0 and report.kept == len(corpus)
    return {
        "corpus": corpus,
        "train_logs": train_logs,
        "test_logs": test_logs,
        "news_tokens": {n.news_id: n.title_tokens for n in corpus},
    }


@pytest.fixture(scope="session")
def glove_lookup(prepared):
    corpus = gl.encode_documents(n.title_tokens + n.abstract_tokens for n in prepared["corpus"])
    tokens = gl.build_vocab(corpus, min_count=1)
    matrix = gl.build_cooccurrence(corpus, tokens, window=4)
    config = gl.GloveConfig(dim=16, window=4, x_max=20.0, epochs=8, min_count=1, seed=3)
    table, trace = gl.glove_train(matrix, config)
    assert len(trace) == config.epochs
    return gl.EmbeddingLookup.from_rows(tokens, table.word_vectors())


@pytest.fixture(scope="session")
def trained(prepared, glove_lookup):
    """Small trained model plus a corpus index for retrieval tests."""
    config = mdl.ModelConfig(
        heads=2, d_head=4, d_attn=8, negatives=4,
        max_title_tokens=6, max_history=8,
        learning_rate=0.05, epochs=4, batch_size=16, seed=5,
    )
    params, trace = mdl.train_model(
        prepared["train_logs"], prepared["news_tokens"], glove_lookup, config)
    index = ret.CorpusIndex(prepared["corpus"], glove_lookup, params)
    return {"config": config, "params": params, "trace": trace, "index": index}


def make_lookup(tokens, dim, seed=0):
    rng = np.random.default_rng(seed)
    return gl.EmbeddingLookup.from_rows(list(tokens), rng.normal(size=(len(tokens), dim)))


def glove_cost_grads(table, matrix, config):
    """GloVe's cost and its analytic gradient for each parameter array of
    ``table``: the reference that finite differences check and that one
    AdaGrad sweep over distinct entries steps along."""
    table.check_finite()
    grads = {key: np.zeros_like(getattr(table, key)) for key in ("W", "Wt", "b", "bt")}
    if matrix.nnz == 0:
        return 0.0, grads
    i, j = matrix.rows, matrix.cols
    fw, diff = gl._weighted_residuals(table, matrix, config)
    cost = float(np.sum(fw * diff * diff))
    g = 2.0 * fw * diff
    np.add.at(grads["W"], i, g[:, None] * table.Wt[j])
    np.add.at(grads["Wt"], j, g[:, None] * table.W[i])
    np.add.at(grads["b"], i, g)
    np.add.at(grads["bt"], j, g)
    return cost, grads


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), 1e-8)
    return float(np.max(np.abs(got - want) / denom))


def nce_probability(pos_score, neg_scores):
    """Reference click probability exp(pos) / (exp(pos) + sum exp(neg)),
    one score at a time with max subtraction: the oracle ``model.sample_loss``
    (-log of it, vectorized) is checked against."""
    scores = [float(pos_score)] + [float(s) for s in neg_scores]
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    return exps[0] / math.fsum(exps)


def weighted_sum(t, w):
    """sum(t * w) as an autodiff node: a scalar that depends on every entry of ``t``."""
    w = np.asarray(w, dtype=np.float64)
    out = ad.Tensor(np.sum(t.data * w), (t,))

    def bwd(g):
        t.grad += g * w

    out.bwd = bwd
    return out
