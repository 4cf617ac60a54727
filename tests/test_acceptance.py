"""End-to-end acceptance gate.

Ten checks covering gradient correctness, oracle equivalence, metric
identities, preprocessing fidelity, desk-scale learning, determinism,
(when the real dataset is on disk) dataset-scale counters, and model
quality on noisy fixtures against a category oracle. Each check
prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to watch them as they complete. The two pipeline checks share one
module-scoped double run of the full CLI chain.
"""

import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

import newsrec.autodiff as ad
import newsrec.glove as gl
import newsrec.metrics as mx
import newsrec.mind as mind
import newsrec.model as mdl
import newsrec.synth as synth
import newsrec.textprep as tp
from newsrec import cli

from conftest import glove_cost, glove_cost_grads, nce_probability


def report(index: int, label: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {index}/10] {label}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    return ok


def rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
    return float(np.max(np.abs(got - want) / scale))


# ---------------------------------------------------------------- embeddings


def random_glove_instance(rng, max_vocab, max_dim, max_nnz):
    v = int(rng.integers(2, max_vocab + 1))
    d = int(rng.integers(1, max_dim + 1))
    nnz = int(rng.integers(1, min(max_nnz, v * v) + 1))
    keys = rng.choice(v * v, size=nnz, replace=False)
    rows = (keys // v).astype(np.int64)
    cols = (keys % v).astype(np.int64)
    vals = rng.uniform(0.5, 150.0, size=nnz)  # straddles x_max=100
    matrix = gl.CooccurrenceMatrix(v, rows, cols, vals)
    table = gl.init_table(v, d, seed=int(rng.integers(1_000_000)))
    for arr in (table.W, table.Wt, table.b, table.bt):
        arr += rng.normal(scale=0.2, size=arr.shape)
    config = gl.GloveConfig(dim=d, window=2, x_max=100.0, alpha=0.75, min_count=1)
    return table, matrix, config


def test_embedding_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    start = time.perf_counter()
    for _ in range(20):
        table, matrix, config = random_glove_instance(rng, max_vocab=8, max_dim=6, max_nnz=64)
        _, grads = glove_cost_grads(table, matrix, config)
        for key in ("W", "Wt", "b", "bt"):
            arr = getattr(table, key)
            # arr is a strided view of table.params: perturb it in place
            fd = np.zeros(arr.size)
            for i in range(arr.size):
                keep = arr.flat[i]
                arr.flat[i] = keep + h
                up = glove_cost(table, matrix, config)
                arr.flat[i] = keep - h
                down = glove_cost(table, matrix, config)
                arr.flat[i] = keep
                fd[i] = (up - down) / (2.0 * h)
            worst = max(worst, rel_gap(grads[key].reshape(-1), fd))
    took = time.perf_counter() - start
    ok = worst <= 1e-5 and took < 5.0
    assert report(1, "embedding-cost gradient check", ok,
                  f"max rel err {worst:.2e}, {took:.1f}s")


def direct_summation_cost(table, matrix, config):
    dim = table.W.shape[1]
    terms = []
    for idx in range(matrix.nnz):
        i = int(matrix.rows[idx])
        j = int(matrix.cols[idx])
        x = float(matrix.vals[idx])
        dot = math.fsum(float(table.W[i, k]) * float(table.Wt[j, k]) for k in range(dim))
        diff = dot + float(table.b[i]) + float(table.bt[j]) - math.log(x)
        weight = (x / config.x_max) ** config.alpha if x < config.x_max else 1.0
        terms.append(weight * diff * diff)
    return math.fsum(terms)


def test_embedding_cost_matches_direct_summation():
    rng = np.random.default_rng(12)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        table, matrix, config = random_glove_instance(rng, max_vocab=30, max_dim=12, max_nnz=100)
        got = glove_cost(table, matrix, config)
        want = direct_summation_cost(table, matrix, config)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    took = time.perf_counter() - start
    ok = worst <= 1e-10 and took < 5.0
    assert report(2, "embedding-cost oracle equivalence", ok,
                  f"max rel err {worst:.2e}, {took:.1f}s")


# --------------------------------------------------------- attention network


def one_impression_loss(params, lookup, title_map, history, pos, negs):
    """A batch of one sample, built as the trainer builds a batch."""
    ids = list(dict.fromkeys((*history, pos, *negs)))
    news = mdl.encode_news([mdl.title_rows(title_map[n], lookup, params.config.max_title_tokens)
                            for n in ids], lookup.matrix, params)
    user = mdl.encode_user(news, [[ids.index(n) for n in history]], params)
    return ad.mean(mdl.sample_loss(user, news, [[ids.index(n) for n in (pos, *negs)]]))


def test_attention_chain_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    embed_dim = 5
    vocab = [f"w{i}" for i in range(10)]
    h = 1e-4
    worst = 0.0
    start = time.perf_counter()
    for _ in range(10):
        lookup = gl.EmbeddingLookup.from_rows(vocab, rng.normal(scale=0.4, size=(10, embed_dim)))
        config = mdl.ModelConfig(heads=2, d_head=3, d_attn=4, negatives=2,
                                 max_title_tokens=5, max_history=4,
                                 seed=int(rng.integers(1_000_000)))
        params = mdl.init_params(embed_dim, config)
        n_hist = int(rng.integers(1, 5))
        ids = [f"H{i}" for i in range(n_hist)] + ["P", "G1", "G2"]
        title_map = {
            nid: tuple(vocab[t] for t in rng.integers(0, 10, size=rng.integers(1, 6)))
            for nid in ids
        }
        args = (lookup, title_map, ids[:n_hist], "P", ("G1", "G2"))

        loss = one_impression_loss(params, *args)
        ad.backward(loss)
        analytic = [t.grad.copy() for t in params.tensors()]
        for tensor, grad in zip(params.tensors(), analytic):
            flat = tensor.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = float(one_impression_loss(params, *args).data)
                flat[i] = keep - h
                down = float(one_impression_loss(params, *args).data)
                flat[i] = keep
                fd[i] = (up - down) / (2.0 * h)
            worst = max(worst, rel_gap(grad.reshape(-1), fd))
    took = time.perf_counter() - start
    ok = worst <= 1e-4 and took < 30.0
    assert report(3, "attention-chain gradient check", ok,
                  f"max rel err {worst:.2e}, {took:.1f}s")


# ------------------------------------------------------------------- metrics


SCORE_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def pair_count_auc(labels, scores):
    pos = [s for lab, s in zip(labels, scores) if lab == 1]
    neg = [s for lab, s in zip(labels, scores) if lab == 0]
    wins = math.fsum(
        (1.0 if p > n else 0.5 if p == n else 0.0) for p in pos for n in neg
    )
    return wins / (len(pos) * len(neg))


def stable_order(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def direct_mrr(labels, scores):
    order = stable_order(scores)
    recip = [1.0 / (r + 1) for r, i in enumerate(order) if labels[i] == 1]
    return math.fsum(recip) / len(recip)


def direct_ndcg(labels, scores, k):
    order = stable_order(scores)
    depth = min(k, len(labels))
    dcg = math.fsum(
        (2.0 ** labels[order[r]] - 1.0) / math.log2(r + 2) for r in range(depth)
    )
    ideal = sorted(labels, reverse=True)
    idcg = math.fsum((2.0 ** ideal[r] - 1.0) / math.log2(r + 2) for r in range(depth))
    return dcg / idcg


def test_ranking_metrics_match_oracles():
    rng = np.random.default_rng(14)
    worst_auc = 0.0
    exact = True
    start = time.perf_counter()
    for _ in range(1000):
        while True:
            n = int(rng.integers(2, 13))
            labels = [int(x) for x in rng.integers(0, 2, size=n)]
            if 0 < sum(labels) < n:
                break
        scores = [float(SCORE_GRID[i]) for i in rng.integers(0, len(SCORE_GRID), size=n)]
        worst_auc = max(worst_auc, abs(mx.auc(labels, scores) - pair_count_auc(labels, scores)))
        exact = exact and mx.mrr(labels, scores) == direct_mrr(labels, scores)
        exact = exact and mx.ndcg_at(labels, scores, 5) == direct_ndcg(labels, scores, 5)
        exact = exact and mx.ndcg_at(labels, scores, 10) == direct_ndcg(labels, scores, 10)
    took = time.perf_counter() - start
    ok = worst_auc <= 1e-12 and exact and took < 10.0
    assert report(4, "ranking-metric oracle equivalence", ok,
                  f"max AUC gap {worst_auc:.2e}, rank metrics exact={exact}, {took:.1f}s")


def test_click_probability_identities():
    """Identities of the reference click probability, and ``sample_loss``,
    the loss training minimizes, equal to -log of it on the same draws."""
    uniform_ok = all(
        nce_probability(0.7, [0.7] * k) == 1.0 / (k + 1) for k in range(1, 9)
    )
    rng = np.random.default_rng(15)
    shift_gap = 0.0
    loss_gap = 0.0
    one_user = ad.Tensor(np.ones((1, 1)))
    for _ in range(50):
        k = int(rng.integers(1, 9))
        scores = rng.uniform(-5.0, 5.0, size=k + 1)
        c = float(rng.uniform(-50.0, 50.0))
        p0 = nce_probability(scores[0], scores[1:])
        p1 = nce_probability(scores[0] + c, scores[1:] + c)
        shift_gap = max(shift_gap, abs(p0 - p1))
        loss = mdl.sample_loss(one_user, ad.Tensor(scores[:, None]),
                               np.arange(k + 1)[None]).data[0]
        loss_gap = max(loss_gap, abs(loss + math.log(p0)) / -math.log(p0))
    extremes = [
        nce_probability(1e3, [-1e3, 0.0, 1e3]),
        nce_probability(-1e3, [1e3, 1e3]),
    ]
    overflow_ok = all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in extremes)
    ok = uniform_ok and shift_gap <= 1e-12 and overflow_ok and loss_gap <= 1e-12
    assert report(5, "click-probability identities", ok,
                  f"uniform exact={uniform_ok}, shift gap {shift_gap:.2e}, "
                  f"overflow safe={overflow_ok}, sample_loss rel gap {loss_gap:.2e}")


# ------------------------------------------------------------- preprocessing


def test_headline_stopword_removal():
    headline = "How to Get Rid of Skin Tags, According to a Dermatologist"
    stops = tp.load_stopwords()
    tokens = tp.tokenize(headline)
    removed = {t for t in tokens if t in stops}
    kept = [t for t in tokens if t not in stops]
    ok = removed == {"how", "to", "of", "a"} and kept == [
        "get", "rid", "skin", "tags", "according", "dermatologist",
    ]
    assert report(6, "headline stopword removal", ok,
                  f"removed {sorted(removed)}")


# ----------------------------------------------------------- pipeline checks


PIPELINE_ARTIFACTS = (
    ("prep", "tokenized.tsv"),
    ("glove", "embeddings.txt"),
    ("glove", "glove_trace.csv"),
    ("model", "model.bin"),
    ("model", "loss_trace.csv"),
    ("eval", "prediction.txt"),
    ("eval", "metrics.json"),
)


@pytest.fixture(scope="module")
def pipeline500(tmp_path_factory):
    """Two identical seeded single-threaded runs over the planted fixture."""
    root = tmp_path_factory.mktemp("acceptance")
    fx = str(root / "fixture")
    synth.generate_corpus(fx)  # 500 news / 5 categories / 200 users / 2000 impressions
    common = ["--seed", "1", "--threads", "1"]
    runs = {}
    for run in ("run1", "run2"):
        out = {kind: str(root / run / kind) for kind in ("prep", "glove", "model", "eval")}
        t0 = time.perf_counter()
        steps = [
            ["prepare", "--news", f"{fx}/news.tsv",
             "--behaviors", f"{fx}/behaviors_train.tsv", "--out-dir", out["prep"]],
            ["train-glove", "--corpus", f"{out['prep']}/tokenized.tsv",
             "--out-dir", out["glove"]],
            ["train-model", "--corpus", f"{out['prep']}/tokenized.tsv",
             "--behaviors", f"{fx}/behaviors_train.tsv",
             "--embeddings", f"{out['glove']}/embeddings.txt", "--out-dir", out["model"]],
            ["evaluate", "--corpus", f"{out['prep']}/tokenized.tsv",
             "--behaviors", f"{fx}/behaviors_test.tsv",
             "--embeddings", f"{out['glove']}/embeddings.txt",
             "--model", f"{out['model']}/model.bin", "--out-dir", out["eval"]],
        ]
        for step in steps:
            assert cli.main(step + common) == 0, step[0]
        runs[run] = {"dirs": out, "seconds": time.perf_counter() - t0}
    return {"fixture": fx, **runs}


def test_pipeline_learns_planted_preferences(pipeline500):
    run = pipeline500["run1"]
    with open(os.path.join(run["dirs"]["eval"], "metrics.json")) as fh:
        metrics = json.load(fh)

    logs, errors = mind.load_behaviors(
        os.path.join(pipeline500["fixture"], "behaviors_test.tsv"))
    assert not errors
    rng = np.random.default_rng(123)
    random_report = mx.evaluate(
        mx.ImpressionResult(
            log.impression_id,
            tuple(lab for _, lab in log.candidates),
            tuple(float(s) for s in rng.random(len(log.candidates))),
        )
        for log in logs
    )

    ok = (metrics["auc"] >= 0.85 and metrics["mrr"] >= 0.55
          and abs(random_report.auc - 0.5) <= 0.03
          and run["seconds"] < 300.0)
    assert report(7, "desk-scale end-to-end learning", ok,
                  f"auc {metrics['auc']:.4f}, mrr {metrics['mrr']:.4f}, "
                  f"random-scorer auc {random_report.auc:.4f}, {run['seconds']:.0f}s")


def test_pipeline_is_deterministic(pipeline500):
    differing = []
    for kind, name in PIPELINE_ARTIFACTS:
        paths = [os.path.join(pipeline500[run]["dirs"][kind], name)
                 for run in ("run1", "run2")]
        with open(paths[0], "rb") as fh:
            first = fh.read()
        with open(paths[1], "rb") as fh:
            second = fh.read()
        if first != second:
            differing.append(name)
    ok = not differing
    assert report(8, "seeded rerun byte-identical", ok,
                  "all artifacts match" if ok else f"differ: {differing}")


# ------------------------------------------------------------- dataset scale


def test_dataset_scale_counters():
    mind_dir = os.environ.get("NEWSREC_MIND_DIR", "")
    news_path = os.path.join(mind_dir, "news.tsv")
    behaviors_path = os.path.join(mind_dir, "behaviors.tsv")
    if not (mind_dir and os.path.exists(news_path) and os.path.exists(behaviors_path)):
        print("[acceptance 9/10] dataset-scale counters: SKIP "
              "(point NEWSREC_MIND_DIR at a MIND-large train directory)", flush=True)
        pytest.skip("MIND files not present")
    articles, _ = mind.load_news(news_path)
    logs, _ = mind.load_behaviors(behaviors_path)
    stats = mind.compute_stats(articles, logs)
    lengths = [len(a.title.split()) for a in articles]
    mean_len = sum(lengths) / len(lengths)
    ok = stats.news == 101_527 and stats.impressions == 1_000_000 and 10.0 <= mean_len <= 13.0
    assert report(9, "dataset-scale counters", ok,
                  f"news {stats.news}, behaviors {stats.impressions}, "
                  f"title mean {mean_len:.2f}")


# -------------------------------------------------------------- quality gate


# The planted fixture blurred: 30% of clicks and 20% of history entries
# from a random category, 30% of words from a pool all categories share,
# and 10 negatives per impression drawn from any category.
NOISY_FIXTURE = dict(click_noise=0.3, history_noise=0.2, shared_word_share=0.3,
                     negatives_any_category=True, negatives_per_impression=10)
GATE_SEEDS = (1, 2, 3, 4, 5)
# Each bound lies 0.02 past the worst of the data seeds above, trained in
# float64 (AUC 0.762, MRR 0.512, gap 0.016); CHANGES.md lists the per-seed
# values, and shows that one 4-wide head or frozen Q, K and V fail it.
GATE_MIN_AUC = 0.74
GATE_MIN_MRR = 0.49
GATE_MAX_GAP = 0.035


def category_oracle(news_path, logs):
    """The metrics of scoring a candidate 1.0 if its category is the most
    common one in the user's history and 0.0 otherwise: what the planted
    signal allows."""
    articles, _ = mind.load_news(news_path)
    category = {a.news_id: a.category for a in articles}
    results = []
    for log in logs:
        top = Counter(category[nid] for nid in log.history).most_common(1)[0][0]
        results.append(mx.ImpressionResult(
            log.impression_id,
            tuple(lab for _, lab in log.candidates),
            tuple(1.0 if category[nid] == top else 0.0 for nid, _ in log.candidates),
        ))
    return mx.evaluate(results)


def noisy_chain(root, data_seed, train_model_args=()):
    """prepare, train-glove, train-model and evaluate (seed 1) on the noisy
    fixture of ``data_seed``: the model's metrics.json and the oracle's report."""
    fx = synth.generate_corpus(os.path.join(root, "fixture"), seed=data_seed, **NOISY_FIXTURE)
    out = {kind: os.path.join(root, kind) for kind in ("prep", "glove", "model", "eval")}
    corpus = os.path.join(out["prep"], "tokenized.tsv")
    embeddings = os.path.join(out["glove"], "embeddings.txt")
    steps = [
        ["prepare", "--news", fx.news, "--behaviors", fx.behaviors_train,
         "--out-dir", out["prep"]],
        ["train-glove", "--corpus", corpus, "--out-dir", out["glove"]],
        ["train-model", "--corpus", corpus, "--behaviors", fx.behaviors_train,
         "--embeddings", embeddings, "--out-dir", out["model"], *train_model_args],
        ["evaluate", "--corpus", corpus, "--behaviors", fx.behaviors_test,
         "--embeddings", embeddings, "--model", os.path.join(out["model"], "model.bin"),
         "--out-dir", out["eval"]],
    ]
    for step in steps:
        assert cli.main(step + ["--seed", "1", "--threads", "1"]) == 0, step[0]
    with open(os.path.join(out["eval"], "metrics.json")) as fh:
        model = json.load(fh)
    logs, errors = mind.load_behaviors(fx.behaviors_test)
    assert not errors
    return model, category_oracle(fx.news, logs)


def test_model_recovers_the_planted_signal_through_noise(tmp_path):
    start = time.perf_counter()
    failing, worst = [], [1.0, 1.0, -1.0]
    for seed in GATE_SEEDS:
        model, oracle = noisy_chain(str(tmp_path / f"seed{seed}"), seed)
        gap = oracle.auc - model["auc"]
        worst = [min(worst[0], model["auc"]), min(worst[1], model["mrr"]), max(worst[2], gap)]
        print(f"  data seed {seed}: auc {model['auc']:.4f}, mrr {model['mrr']:.4f}, "
              f"oracle auc {oracle.auc:.4f}, gap {gap:.4f}", flush=True)
        if model["auc"] < GATE_MIN_AUC or model["mrr"] < GATE_MIN_MRR or gap > GATE_MAX_GAP:
            failing.append(seed)
    took = time.perf_counter() - start
    ok = not failing and took < 300.0
    assert report(10, "noisy-fixture quality against the category oracle", ok,
                  f"worst auc {worst[0]:.4f} (>= {GATE_MIN_AUC}), mrr {worst[1]:.4f} "
                  f"(>= {GATE_MIN_MRR}), gap {worst[2]:.4f} (<= {GATE_MAX_GAP}), "
                  f"failing seeds {failing}, {took:.0f}s")
