"""Attention encoders, click scoring, the NCE loss, and the trainer."""

import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

import newsrec.autodiff as ad
import newsrec.cli as cli
import newsrec.glove as gl
import newsrec.mind as mind
import newsrec.model as mdl
import newsrec.retrieval as ret
from newsrec.errors import ConfigError, EmptyHistory, InsufficientNegatives, NoKnownTokens
from newsrec.textprep import TokenizedNews, save_tokenized

from conftest import make_lookup, nce_probability, rel_err, weighted_sum

RNG = np.random.default_rng(7)


def tiny_config(**kw):
    base = dict(heads=2, d_head=3, d_attn=4, negatives=2,
                max_title_tokens=5, max_history=4,
                learning_rate=0.01, epochs=1, batch_size=4, seed=1)
    base.update(kw)
    return mdl.ModelConfig(**base)


def tiny_params(embed_dim=4, **kw):
    return mdl.init_params(embed_dim, tiny_config(**kw))


def naive_attention(x, enc, d_head):
    """Per-head loop over the column slices h*d_head:(h+1)*d_head of Q, K and V."""
    d_model = enc.d_model
    Wq, Wk, Wv = (enc.Wqkv[:, i * d_model:(i + 1) * d_model] for i in range(3))
    outs = []
    for h in range(d_model // d_head):
        cols = slice(h * d_head, (h + 1) * d_head)
        q = x @ Wq[:, cols]
        k = x @ Wk[:, cols]
        v = x @ Wv[:, cols]
        s = (q @ k.T) / math.sqrt(d_head)
        a = np.exp(s - s.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        outs.append(a @ v)
    return np.concatenate(outs, axis=1)


def naive_pool(y, enc):
    scores = np.tanh(y @ enc.proj) @ enc.query
    w = np.exp(scores - scores.max())
    w /= w.sum()
    return w @ y


def naive_encode(x, enc, d_head):
    return naive_pool(naive_attention(x, enc, d_head), enc)


def whole(x):
    """``lengths`` of one sequence made of every row of ``x``."""
    return np.array([len(x)])


def attend(x, enc, d_head=3):
    """``self_attention`` over one sequence made of every row of ``x``."""
    return mdl.self_attention(mdl._project(x, enc.Wqkv), d_head, whole(x))[0]


def title_table(title_map, lookup, max_tokens=5):
    """Id -> ``title_rows`` of each encodable title, as ``train_model`` builds it."""
    table = {nid: mdl.title_rows(toks, lookup, max_tokens) for nid, toks in title_map.items()}
    return {nid: rows for nid, rows in table.items() if len(rows)}


class TestSelfAttention:
    def test_single_row_reduces_to_value_projection(self):
        params = tiny_params()
        x = RNG.normal(size=(1, 4))
        out = attend(x, params.news)
        want = x @ params.news.Wqkv[:, 2 * params.news.d_model:]
        assert rel_err(out, want) <= 1e-12

    def test_identical_rows_give_identical_outputs(self):
        params = tiny_params()
        row = RNG.normal(size=4)
        x = np.stack([row, row, row])
        out = attend(x, params.news)
        assert rel_err(out[1], out[0]) <= 1e-12
        assert rel_err(out[2], out[0]) <= 1e-12

    def test_matches_naive_oracle(self):
        params = tiny_params()
        x = RNG.normal(size=(5, 4))
        out = attend(x, params.news)
        assert rel_err(out, naive_attention(x, params.news, 3)) <= 1e-10

    def test_permutation_equivariant(self):
        params = tiny_params()
        x = RNG.normal(size=(6, 4))
        perm = RNG.permutation(6)
        out = attend(x, params.news)
        out_p = attend(x[perm], params.news)
        assert rel_err(out_p, out[perm]) <= 1e-12


class TestAdditivePool:
    def test_single_row_passes_through(self):
        params = tiny_params()
        y = RNG.normal(size=(1, 6))
        out = mdl.additive_pool(y, params.user, whole(y))[0]
        assert rel_err(out, y[0]) <= 1e-12

    def test_identical_rows_return_that_row(self):
        params = tiny_params()
        row = RNG.normal(size=6)
        out = mdl.additive_pool(np.stack([row, row]), params.user, np.array([2]))[0]
        assert rel_err(out, row) <= 1e-12

    def test_matches_naive_oracle(self):
        params = tiny_params()
        y = RNG.normal(size=(5, 6))
        out = mdl.additive_pool(y, params.user, whole(y))[0]
        assert rel_err(out, naive_pool(y, params.user)) <= 1e-10

    def test_output_in_convex_hull_of_rows(self):
        params = tiny_params()
        for _ in range(10):
            y = RNG.normal(size=(4, 6))
            out = mdl.additive_pool(y, params.user, whole(y))[0]
            lo = y.min(axis=0) - 1e-12
            hi = y.max(axis=0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestEncoders:
    def test_encode_news_rejects_all_oov_title(self):
        lookup = make_lookup(["alpha", "beta"], 4)
        params = tiny_params()
        oov = mdl.title_rows(["zzz", "qqq"], lookup, 5)
        assert oov.dtype == np.intp and len(oov) == 0
        with pytest.raises(NoKnownTokens):
            mdl.encode_news([mdl.title_rows(["alpha"], lookup, 5), oov], lookup.matrix, params)
        with pytest.raises(NoKnownTokens, match="zzz"):
            mdl.news_vector(["zzz", "qqq"], lookup, params)

    def test_encode_news_one_token_title(self):
        lookup = make_lookup(["alpha"], 4)
        params = tiny_params()
        out = mdl.encode_news([[lookup.index["alpha"]]], lookup.matrix, params).data[0]
        x = lookup.matrix[[lookup.index["alpha"]]]
        assert rel_err(out, naive_encode(x, params.news, 3)) <= 1e-10

    def test_encode_news_truncates_to_token_budget(self):
        tokens = [f"t{i}" for i in range(9)]
        lookup = make_lookup(tokens, 4)
        params = tiny_params()   # budget of 5 title tokens
        assert mdl.title_rows(tokens, lookup, 5).tolist() == [0, 1, 2, 3, 4]
        full = mdl.news_vector(tokens, lookup, params)
        assert np.array_equal(full, mdl.news_vector(tokens[:5], lookup, params))

    def test_encode_news_skips_unknown_tokens(self):
        lookup = make_lookup(["alpha", "beta"], 4)
        params = tiny_params()
        rows = mdl.title_rows(["alpha", "zzz", "beta"], lookup, 5)
        assert rows.tolist() == [lookup.index["alpha"], lookup.index["beta"]]
        mixed = mdl.news_vector(["alpha", "zzz", "beta"], lookup, params)
        assert np.array_equal(mixed, mdl.news_vector(["alpha", "beta"], lookup, params))

    def test_encode_news_matches_oracle(self):
        lookup = make_lookup(["a", "b", "c", "d"], 4)
        params = tiny_params()
        rows = mdl.title_rows(["a", "b", "c"], lookup, 5)
        out = mdl.encode_news([rows], lookup.matrix, params).data[0]
        x = lookup.matrix[[lookup.index[t] for t in ("a", "b", "c")]]
        assert rel_err(out, naive_encode(x, params.news, 3)) <= 1e-10

    def test_encode_user_single_news(self):
        params = tiny_params()
        h = RNG.normal(size=(1, 6))
        out = mdl.encode_user(ad.Tensor(h), [[0]], params).data[0]
        assert rel_err(out, naive_encode(h, params.user, 3)) <= 1e-10

    def test_encode_user_invariant_to_history_order(self):
        params = tiny_params()
        h = RNG.normal(size=(4, 6))
        out, out_p = mdl.encode_user(ad.Tensor(h), [[0, 1, 2, 3], [3, 2, 1, 0]], params).data
        assert rel_err(out_p, out) <= 1e-12

    def test_encode_user_matches_oracle(self):
        params = tiny_params()
        h = RNG.normal(size=(3, 6))
        out = mdl.encode_user(ad.Tensor(h), [[0, 1, 2]], params).data[0]
        assert rel_err(out, naive_encode(h, params.user, 3)) <= 1e-10

    def test_encode_user_rejects_empty_history(self):
        with pytest.raises(EmptyHistory):
            mdl.encode_user(ad.Tensor(np.zeros((2, 6))), [[0, 1], []], tiny_params())

    def test_user_vectors_batch_equals_each_user_alone(self):
        params = tiny_params()
        news = RNG.normal(size=(5, 6))
        histories = [[0, 2], [], [4], [1, 2, 3, 4], []]
        users = mdl.user_vectors(news, histories, params)
        assert users.shape == (5, 6)
        for history, got in zip(histories, users):
            (alone,) = mdl.user_vectors(news[history], [range(len(history))], params)
            assert np.array_equal(got, alone)
        assert not users[1].any() and not users[4].any()


class TestScoring:
    def test_orthogonal_vectors_score_zero(self):
        assert mdl.score_click(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_matching_unit_basis_scores_one(self):
        e0 = np.array([1.0, 0.0, 0.0])
        assert mdl.score_click(e0, e0) == 1.0

    def test_hand_inner_product(self):
        assert mdl.score_click(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


class TestNceProbability:
    """The reference probability that ``sample_loss`` is checked against."""

    def test_uniform_scores_give_one_over_k_plus_one(self):
        for k in range(1, 9):
            assert nce_probability(0.0, [0.0] * k) == 1.0 / (k + 1)

    def test_huge_positive_score_does_not_overflow(self):
        p = nce_probability(1000.0, [0.0, 0.0, 0.0, 0.0])
        assert p == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(p)

    def test_hand_value(self):
        e = math.e
        p = nce_probability(1.0, [0.0, 2.0])
        assert p == pytest.approx(e / (e + 1.0 + e * e), rel=1e-12)
        assert p == pytest.approx(0.2447, abs=5e-5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pos = float(rng.normal())
            negs = rng.normal(size=4).tolist()
            c = float(rng.normal() * 100)
            base = nce_probability(pos, negs)
            shifted = nce_probability(pos + c, [s + c for s in negs])
            assert abs(base - shifted) <= 1e-12


def batch_loss(users, news, candidates):
    """The loss one training batch minimizes: the mean of ``sample_loss``."""
    return float(ad.mean(mdl.sample_loss(ad.Tensor(np.asarray(users, dtype=float)),
                                         ad.Tensor(np.asarray(news, dtype=float)),
                                         candidates)).data)


class TestLoss:
    def test_uniform_batch_loss_is_log_five(self):
        news = RNG.normal(size=(5, 2))
        assert batch_loss([[0.0, 0.0]], news, [[0, 1, 2, 3, 4]]) == pytest.approx(
            math.log(5.0), rel=1e-15)

    def test_certain_predictions_give_zero_loss(self):
        news = [[1000.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        assert batch_loss([[1.0, 0.0], [1.0, 0.0]], news, [[0, 1, 2], [0, 2, 1]]) == 0.0

    def test_two_item_hand_batch(self):
        """Scores (0, 0, 0) and (1, 0, 2): p = 1/3 and e / (e + 1 + e^2)."""
        e = math.e
        want = (math.log(3.0) - math.log(e / (e + 1.0 + e * e))) / 2.0
        got = batch_loss([[0.0], [1.0]], [[1.0], [0.0], [2.0]], [[0, 1, 2], [0, 1, 2]])
        assert got == pytest.approx(want, rel=1e-14)

    def test_sample_loss_equals_negative_log_probability(self):
        users = ad.Tensor(RNG.normal(size=(2, 4)))
        news = ad.Tensor(RNG.normal(size=(5, 4)))
        cands = [[0, 1, 2, 3, 4], [3, 0, 4, 1, 2]]
        losses = mdl.sample_loss(users, news, cands).data
        assert losses.shape == (2,)
        for user, row, loss in zip(users.data, cands, losses):
            scores = [float(user @ news.data[c]) for c in row]
            p = nce_probability(scores[0], scores[1:])
            assert loss == pytest.approx(-math.log(p), rel=1e-12)


    def test_sample_loss_is_stable_for_large_scores(self):
        users = ad.Tensor(np.array([[10.0, 0.0], [0.0, -10.0]]))
        news = ad.Tensor(RNG.normal(size=(4, 2)) * 10)
        cands = [[0, 1, 2, 3], [3, 2, 1, 0]]
        losses = mdl.sample_loss(users, news, cands).data
        for user, row, loss in zip(users.data, cands, losses):
            scores = news.data[row] @ user
            want = np.log(np.sum(np.exp(scores - scores.max()))) + scores.max() - scores[0]
            assert np.isfinite(loss) and loss == pytest.approx(want, rel=1e-12)

    def test_sample_loss_gradients_match_central_differences(self):
        """Both samples score news row 1, so its gradient is a sum."""
        users0 = RNG.normal(size=(2, 3))
        news0 = RNG.normal(size=(4, 3))
        cands = [[0, 1, 2], [1, 3, 0]]
        users, news = ad.Tensor(users0.copy()), ad.Tensor(news0.copy())
        w = np.array([0.7, -1.3])
        ad.backward(weighted_sum(mdl.sample_loss(users, news, cands), w))

        def f():
            return float(mdl.sample_loss(ad.Tensor(users0), ad.Tensor(news0), cands).data @ w)

        for arr, got in ((users0, users.grad), (news0, news.grad)):
            fd = central_differences(f, arr, 1e-6)
            assert np.max(np.abs(got - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(fd))))


def one_impression_loss(params, lookup, title_map, history, pos, negs):
    """Forward pass of a single training sample: a batch of one, as the trainer builds it."""
    ids = list(dict.fromkeys((*history, pos, *negs)))
    news = mdl.encode_news([mdl.title_rows(title_map[n], lookup, params.config.max_title_tokens)
                            for n in ids], lookup.matrix, params)
    user = mdl.encode_user(news, [[ids.index(n) for n in history]], params)
    return ad.mean(mdl.sample_loss(user, news, [[ids.index(n) for n in (pos, *negs)]]))


class TestTrainerGradients:
    def test_full_chain_matches_central_differences(self):
        tokens = [f"w{i}" for i in range(8)]
        lookup = make_lookup(tokens, 4, seed=2)
        params = tiny_params()
        title_map = {
            "N1": ("w0", "w1"), "N2": ("w2",), "N3": ("w3", "w4", "w5"),
            "N4": ("w6", "w7"), "N5": ("w1", "w5"),
        }
        args = (lookup, title_map, ("N1", "N2"), "N3", ("N4", "N5"))

        loss = one_impression_loss(params, *args)
        ad.backward(loss)
        analytic = [t.grad.copy() for t in params.tensors()]

        h = 1e-4
        worst = 0.0
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
            got = grad.reshape(-1)
            scale = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - got) / scale)))
        assert worst <= 1e-4

    def test_one_encoder_node_matches_central_differences(self, monkeypatch):
        """The hand-derived backward of one user-encoder node over ragged
        histories in two chunks, with respect to the news rows and to the
        encoder's weights.  The first chunk holds rows 1 and 2 twice."""
        monkeypatch.setattr(mdl, "ROW_BUDGET", 6)
        params = tiny_params()
        x0 = RNG.normal(size=(5, 6))
        w = RNG.normal(size=(4, 6))
        histories = [[0, 1], [2], [1, 2], [4, 0, 3, 1, 2]]
        x = ad.Tensor(x0.copy())
        node = mdl.encode_user(x, histories, params)
        assert node.parents == (x, params.user.weights)
        ad.backward(weighted_sum(node, w))

        def f():
            return float(np.sum(mdl.encode_user(ad.Tensor(x0), histories, params).data * w))

        weights = params.user.weights
        for arr, got in ((x0, x.grad), (weights.data, weights.grad)):
            fd = central_differences(f, arr, 1e-6)
            assert np.max(np.abs(got - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(fd))))

    def test_constant_input_gets_no_gradient(self):
        """Word embeddings are inputs, not graph nodes: the news encoder's
        only parent is its weights."""
        lookup = make_lookup(["a", "b", "c"], 4)
        params = tiny_params()
        node = mdl.encode_news([[0, 1], [2]], lookup.matrix, params)
        assert node.parents == (params.news.weights,)
        ad.backward(ad.mean(node))
        assert params.news.weights.grad.any()

    def test_encoder_node_backward_runs_once(self):
        """Its backward overwrites the forward's buffers, so a second one is refused."""
        lookup = make_lookup(["a", "b"], 4)
        loss = ad.mean(mdl.encode_news([[0, 1], [1]], lookup.matrix, tiny_params()))
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="runs once"):
            ad.backward(loss)


def central_differences(f, arr, h):
    """Central-difference gradient of the scalar ``f()`` in each entry of
    ``arr``, which is perturbed in place and restored."""
    fd = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        keep = arr[idx]
        arr[idx] = keep + h
        up = f()
        arr[idx] = keep - h
        down = f()
        arr[idx] = keep
        fd[idx] = (up - down) / (2.0 * h)
    return fd


def max_rel(got, want):
    """Largest absolute difference relative to the largest entry of ``want``."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def ragged_batch():
    """Three samples over nine news with titles of 1-5 tokens.  Samples
    share news: N3, in sample 0's history, is sample 2's click, and N2, in
    sample 1's history, is a negative of sample 0."""
    tokens = [f"w{i}" for i in range(8)]
    lookup = make_lookup(tokens, 4, seed=6)
    title_map = {f"N{i}": tuple(tokens[(i + j) % 8] for j in range(1 + i % 5)) for i in range(9)}
    batch = [
        mdl.TrainSample(history=("N0", "N3", "N4"), positive="N1", negatives=("N2", "N5")),
        mdl.TrainSample(history=("N2", "N8"), positive="N6", negatives=("N0", "N7")),
        mdl.TrainSample(history=("N5", "N6", "N7", "N8"), positive="N3", negatives=("N1", "N4")),
    ]
    return lookup, title_map, batch


class TestBatchedEncoders:
    """Length-sorted packing: many chunks, several lengths per chunk."""

    def test_batch_gradients_match_central_differences(self, monkeypatch):
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)
        packs = []
        pack = mdl._pack

        def spy(lengths):
            chunks = pack(lengths)
            packs.append([lengths[c].tolist() for c in chunks])
            return chunks

        monkeypatch.setattr(mdl, "_pack", spy)
        lookup, title_map, batch = ragged_batch()
        params = tiny_params()

        def loss():
            return ad.mean(mdl._batch_losses(batch, title_table(title_map, lookup),
                                             lookup.matrix, params))

        ad.backward(loss())
        news_chunks, user_chunks = packs[:2]
        assert len(news_chunks) >= 3 and len(user_chunks) >= 3
        assert any(len(set(chunk)) > 1 for chunk in news_chunks)
        worst = 0.0
        for tensor in params.tensors():
            got = tensor.grad.copy()
            fd = central_differences(lambda: float(loss().data), tensor.data, 1e-4)
            scale = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - got) / scale)))
        assert worst <= 1e-4

    def test_ragged_batch_matches_per_head_oracle(self, monkeypatch):
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)
        lookup, title_map, batch = ragged_batch()
        params = tiny_params()
        ids = sorted(title_map)
        table = title_table(title_map, lookup)
        news = mdl.encode_news([table[n] for n in ids], lookup.matrix, params)
        for nid, got in zip(ids, news.data):
            x = lookup.matrix[[lookup.index[t] for t in title_map[nid]]]
            assert max_rel(got, naive_encode(x, params.news, 3)) <= 1e-12
        histories = [[ids.index(n) for n in s.history] for s in batch]
        users = mdl.encode_user(news, histories, params)
        for rows, got in zip(histories, users.data):
            assert max_rel(got, naive_encode(news.data[rows], params.user, 3)) <= 1e-12

    def test_vectors_do_not_depend_on_batch_order_or_row_budget(self, monkeypatch):
        lookup, title_map, batch = ragged_batch()
        params = tiny_params()
        ids = sorted(title_map)
        table = title_table(title_map, lookup)
        perm = np.random.default_rng(3)

        def encode(order, budget):
            monkeypatch.setattr(mdl, "ROW_BUDGET", budget)
            news = mdl.encode_news([table[ids[i]] for i in order], lookup.matrix, params)
            at = {ids[i]: row for row, i in enumerate(order)}
            users = mdl.encode_user(news, [[at[n] for n in s.history] for s in batch], params)
            return dict(zip([ids[i] for i in order], news.data)), users.data

        want_news, want_users = encode(list(range(len(ids))), 1024)
        for order in (list(range(len(ids)))[::-1], perm.permutation(len(ids)).tolist()):
            for budget in (1, 4, 1024):
                news, users = encode(order, budget)
                assert all(np.array_equal(news[n], want_news[n]) for n in ids)
                assert np.array_equal(users, want_users)

    def test_corpus_index_equals_row_by_row_news_vectors(self, monkeypatch):
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)
        lookup, title_map, _ = ragged_batch()
        params = tiny_params()
        corpus = [TokenizedNews(nid, "c", "s", " ".join(toks), "", " ".join(toks), "")
                  for nid, toks in title_map.items()]
        index = ret.CorpusIndex(corpus, lookup, params)
        want = np.stack([mdl.news_vector(item.title_tokens, lookup, params) for item in corpus])
        assert np.array_equal(index.matrix, want)


def old_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def old_self_attention(x, enc, d_head, lengths):
    """``self_attention`` as it was written with temporaries and a copy."""
    qkv = mdl._project(x, enc.Wqkv)
    out = np.empty((len(x), enc.d_model), dtype=qkv.dtype)
    attn = []
    for row, count, length in mdl._runs(lengths):
        q, k, v = mdl._heads(qkv[row : row + count * length], count, length, d_head)
        a = old_softmax((q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head)))
        out[row : row + count * length] = (a @ v).transpose(0, 2, 1, 3).reshape(-1, enc.d_model)
        attn.append(a)
    return out, attn


def old_backward(g, source, tape, enc, d_head, d_source):
    """``_backward`` as it was written with temporaries, copies and ``np.add.at``."""
    wqkv, proj, query = enc.parts(enc.weights.data)
    d_wqkv, d_proj, d_query = enc.parts(enc.weights.grad)
    scale = 1.0 / math.sqrt(d_head)
    for chunk, idx, sizes, attn, seq, hidden, weights in tape:
        starts = mdl._segment_starts(sizes)
        g_rows = np.repeat(g[chunk], sizes, axis=0)
        d_w = np.einsum("ij,ij->i", seq, g_rows)
        d_scores = weights * (d_w - np.repeat(np.add.reduceat(weights * d_w, starts), sizes))
        d_query += hidden.T @ d_scores
        d_hidden = (1.0 - hidden * hidden) * d_scores[:, None] * query
        d_proj += seq.T @ d_hidden
        d_seq = d_hidden @ proj.T + g_rows * weights[:, None]
        x = source[idx]
        qkv = mdl._project(x, wqkv)
        for (row, count, length), a in zip(mdl._runs(sizes), attn):
            stop = row + count * length
            q, k, v = mdl._heads(qkv[row:stop], count, length, d_head)
            d_out = d_seq[row:stop].reshape(count, length, -1, d_head).transpose(0, 2, 1, 3)
            d_s = mdl.softmax_grad(a, d_out @ v.swapaxes(-1, -2))
            d_s *= scale
            grads = (d_s @ k, d_s.swapaxes(-1, -2) @ q, a.swapaxes(-1, -2) @ d_out)
            q[...], k[...], v[...] = grads
        d_wqkv += x.T @ qkv
        if d_source is not None:
            np.add.at(d_source, idx, qkv @ wqkv.T)


def per_chunk_forward(source, seqs, enc, d_head, keep=False):
    """``_forward`` as it was written with one Q|K|V projection per chunk."""
    lengths = np.array([len(s) for s in seqs])
    out = np.empty((len(seqs), enc.d_model), dtype=np.result_type(source, enc.weights.data))
    tape = []
    for chunk in mdl._pack(lengths):
        idx = np.concatenate([seqs[i] for i in chunk])
        sizes = lengths[chunk]
        seq, attn = old_self_attention(source[idx], enc, d_head, sizes)
        out[chunk], (hidden, weights) = mdl.additive_pool(seq, enc, sizes)
        if keep:
            tape.append((chunk, idx, sizes, attn, seq, hidden, weights))
    return out, tape


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactRewrites:
    """The training step's in-place and layered forms give the bits of the
    expressions they replace, kept here as oracles."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 2, 9, 50])
    def test_softmax_matches_last_axis_max(self, dtype, length):
        x = np.random.default_rng(length).normal(scale=30.0, size=(3, 4, length)).astype(dtype)
        x[0, 0, -1] = np.inf
        x[0, 1, 0] = -np.inf
        x[0, 2] = -np.inf
        x[0, 3] = 0.0
        x[0, 3, ::2] = -0.0                      # a -0.0/+0.0 tie for the max
        x[1, 0, length // 2] = np.nan
        x[1, 1, 0] = np.inf
        x[1, 1, -1] = -np.inf
        with np.errstate(invalid="ignore"):
            got, want = mdl.softmax(x), old_softmax(x)
        assert same_bits(got, want)
        assert np.isnan(got[1, 0]).all() and np.isnan(got[0, 2]).all()

    @pytest.mark.parametrize("index", [
        np.array([3, 0, 3, 5, 3, 1, 3, 0, 3, 2]),   # row 3 five times
        np.array([4, 1, 0, 6, 2]),
    ], ids=["repeated", "distinct"])
    def test_scatter_add_matches_add_at(self, index):
        rng = np.random.default_rng(4)
        rows = (rng.normal(size=(len(index), 6)) * 10.0 ** rng.integers(-6, 7, (len(index), 1)))
        rows = rows.astype(np.float32)
        target = rng.normal(size=(7, 6)).astype(np.float32)
        want = target.copy()
        np.add.at(want, index, rows)
        mdl._scatter_add(target, index, rows)
        assert same_bits(target, want)

    def test_adam_steps_match_the_textbook_formula(self):
        rng = np.random.default_rng(5)
        tensors = [ad.Tensor(rng.normal(size=shape)) for shape in ((4, 3), (7,))]
        want = [t.data.copy() for t in tensors]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        opt = mdl.Adam(tensors, lr=0.01)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for t in range(1, 6):
            for i, tensor in enumerate(tensors):
                g = rng.normal(size=tensor.data.shape) * 10.0 ** (t - 3)
                tensor.grad = g
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                want[i] = want[i] - 0.01 * (m[i] / (1.0 - b1 ** t)) / (
                    np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
            opt.step()
            for i, tensor in enumerate(tensors):
                assert same_bits(tensor.data, want[i])
                assert same_bits(opt.m[i], m[i]) and same_bits(opt.v[i], v[i])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encoder_node_matches_the_temporaries_and_copy_code(self, monkeypatch, dtype):
        """A user-encoder node over repeated source rows, in several chunks
        of several lengths: the same vectors and gradients, bit for bit."""
        monkeypatch.setattr(mdl, "ROW_BUDGET", 8)
        rng = np.random.default_rng(6)
        params = tiny_params(embed_dim=4, heads=3, d_head=4, d_attn=5).astype(dtype)
        news = rng.normal(size=(9, params.config.d_model)).astype(dtype)
        histories = [rng.integers(0, 9, n) for n in (3, 1, 5, 3, 2, 6, 1, 4, 3, 5)]
        g = rng.normal(size=(len(histories), params.config.d_model)).astype(dtype)

        def run():
            source = ad.Tensor(news.copy())
            enc = params.user
            enc.weights.grad = np.zeros_like(enc.weights.data)
            source.grad = np.zeros_like(source.data)
            node = mdl._encoder_node(source, histories, enc, params.config.d_head)
            node.bwd(g)
            return node.data, enc.weights.grad, source.grad

        got = run()
        monkeypatch.setattr(mdl, "_forward", per_chunk_forward)
        monkeypatch.setattr(mdl, "_backward", old_backward)
        want = run()
        assert all(same_bits(a, b) for a, b in zip(got, want))


class TestQkvTables:
    """Consecutive chunks share one Q|K|V projection of their distinct
    source rows.  Every output and gradient keeps the bits of one
    projection per chunk (``per_chunk_forward`` and ``old_backward``)."""

    CASES = {
        # titles: tokens repeated within a title and across titles
        "news": (7, [[0, 1, 0], [2, 2, 2, 2], [1, 3], [4], [0, 5, 6, 0, 1], [3], [6, 6],
                     [5, 1, 2], [0]]),
        # histories that repeat news
        "user": (6, [[0, 1, 2], [1], [2, 1, 0, 1], [5, 5], [3], [4, 0, 3, 1, 2, 5], [0, 1]]),
        # one distinct source row: the table takes _project's doubled-row path
        "one_row": (3, [[2], [2, 2], [2, 2, 2]]),
        "one_sequence_of_one": (3, [[1]]),
    }

    @staticmethod
    def assert_per_chunk_bits(source, seqs, enc, d_head, g):
        """``_forward`` and ``_backward`` give the vectors, weight gradients
        and source gradients of the per-chunk oracle, bit for bit."""

        def run(forward, backward):
            enc.weights.grad = np.zeros_like(enc.weights.data)
            d_source = np.zeros_like(source)
            out, tape = forward(source, seqs, enc, d_head, keep=True)
            backward(g, source, tape, enc, d_head, d_source)
            return out, enc.weights.grad, d_source

        want = run(per_chunk_forward, old_backward)
        got = run(mdl._forward, mdl._backward)
        assert all(same_bits(a, b) for a, b in zip(got, want))
        assert got[0].dtype == source.dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("budget", [3, 4])
    @pytest.mark.parametrize("cap", [1, 5, 1024])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_one_projection_per_chunk(self, monkeypatch, dtype, budget, cap, case):
        monkeypatch.setattr(mdl, "ROW_BUDGET", budget)
        monkeypatch.setattr(mdl, "TABLE_ROWS", cap)
        n, seqs = self.CASES[case]
        seqs = [np.array(s) for s in seqs]
        params = tiny_params(heads=3, d_head=4, d_attn=5).astype(dtype)
        enc = params.user if case == "user" else params.news
        rng = np.random.default_rng(8)
        source = rng.normal(size=(n, enc.d_in)).astype(dtype)
        g = rng.normal(size=(len(seqs), enc.d_model)).astype(dtype)
        self.assert_per_chunk_bits(source, seqs, enc, 4, g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_default_heads_match_one_projection_per_chunk(self, monkeypatch, dtype):
        """The default 16x16 heads over 50-dim inputs, in runs of a few chunks."""
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)
        monkeypatch.setattr(mdl, "TABLE_ROWS", 5)
        params = mdl.init_params(50, mdl.ModelConfig(seed=2)).astype(dtype)
        enc = params.news
        rng = np.random.default_rng(11)
        source = rng.normal(size=(9, 50)).astype(dtype)
        seqs = [rng.integers(0, 9, n) for n in (3, 1, 4, 2, 4, 3, 1, 2)]
        g = rng.normal(size=(len(seqs), enc.d_model)).astype(dtype)
        self.assert_per_chunk_bits(source, seqs, enc, 16, g)

    def test_runs_are_consecutive_chunks_that_fit_the_cap(self, monkeypatch):
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)
        monkeypatch.setattr(mdl, "TABLE_ROWS", 5)
        monkeypatch.setattr(mdl, "_rows_agree", lambda *projection: True)
        rng = np.random.default_rng(9)
        seqs = [rng.integers(0, 12, n) for n in rng.integers(1, 6, 30)]
        lengths = np.array([len(s) for s in seqs])
        runs = list(mdl._tables(seqs, lengths, (np.dtype(np.float64), 4, 18)))
        assert len(runs) >= 3
        chunks = [chunk for _, run in runs for chunk, _ in run]
        packed = mdl._pack(lengths)
        assert len(chunks) == len(packed)
        assert all(np.array_equal(a, b) for a, b in zip(chunks, packed))
        for i, (distinct, run) in enumerate(runs):
            idx = np.concatenate([seqs[j] for chunk, _ in run for j in chunk])
            assert np.array_equal(distinct, np.unique(idx))
            assert np.array_equal(distinct[np.concatenate([at for _, at in run])], idx)
            assert len(distinct) <= 5 or len(run) == 1
            if i + 1 < len(runs):   # the next run starts where one more chunk would not fit
                (first, _), *_ = runs[i + 1][1]
                assert len(np.union1d(distinct, np.concatenate([seqs[j] for j in first]))) > 5

    def test_each_encoder_call_projects_each_distinct_source_row_once(self, monkeypatch):
        """Forward or backward, training or inference, ``_project`` sees no
        more ``Wqkv`` rows per encoder call than the call has distinct
        source rows, though the call spans several chunks."""
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)
        lookup, title_map, batch = ragged_batch()
        params = tiny_params()
        width = 3 * params.config.d_model
        for d_in in (lookup.dim, params.config.d_model):   # the premise, on this BLAS
            assert mdl._rows_agree(np.dtype(np.float64), d_in, width)
        counts = []
        project = mdl._project

        def spy(rows, weights):
            if weights.shape[1] == width:   # Wqkv, not the pooling's proj
                counts.append(len(rows))
            return project(rows, weights)

        monkeypatch.setattr(mdl, "_project", spy)

        def check(call, seqs):
            counts.clear()
            result = call()
            idx = np.concatenate([np.asarray(s) for s in seqs])
            assert len(idx) > len(np.unique(idx)) and len(mdl._pack(np.array(
                [len(s) for s in seqs]))) > 1
            assert 0 < sum(counts) <= len(np.unique(idx))
            return result

        titles = title_table(title_map, lookup)
        ids = list(dict.fromkeys(n for s in batch for n in (*s.history, s.positive, *s.negatives)))
        seqs = [titles[n] for n in ids]
        histories = [[ids.index(n) for n in s.history] for s in batch]
        news = check(lambda: mdl.encode_news(seqs, lookup.matrix, params), seqs)
        users = check(lambda: mdl.encode_user(news, histories, params), histories)
        loss = ad.mean(mdl.sample_loss(users, news, [[ids.index(s.positive)] for s in batch]))
        counts.clear()
        ad.backward(loss)
        assert len(counts) == 2   # one table per node: the user encoder's, then the news encoder's
        assert counts[0] <= len({i for h in histories for i in h})
        assert counts[1] <= len(np.unique(np.concatenate(seqs)))
        vecs = check(lambda: mdl.news_vectors(seqs, lookup.matrix, params), seqs)
        check(lambda: mdl.user_vectors(vecs, histories, params), histories)
        corpus = [TokenizedNews(n, "c", "s", " ".join(title_map[n]), "", " ".join(title_map[n]), "")
                  for n in ids]
        check(lambda: ret.CorpusIndex(corpus, lookup, params), seqs)

    @pytest.mark.parametrize("case", ["rows_disagree", "no_repeats", "one_chunk"])
    def test_calls_a_table_cannot_help_project_per_chunk(self, monkeypatch, case):
        """Where this BLAS would give a row other bits in a larger product,
        no source row repeats, or the call is one chunk, each chunk projects
        its own rows as they are, with the bits of the per-chunk oracle."""
        monkeypatch.setattr(mdl, "ROW_BUDGET", 256 if case == "one_chunk" else 4)
        if case == "rows_disagree":
            monkeypatch.setattr(mdl, "_rows_agree", lambda *projection: False)
        n, seqs = self.CASES["news"]
        if case == "no_repeats":
            n, seqs = 9, [[0, 1], [2, 3, 4], [5], [6, 7, 8]]
        seqs = [np.array(s) for s in seqs]
        params = tiny_params()
        rng = np.random.default_rng(10)
        source = rng.normal(size=(n, params.news.d_in))
        g = rng.normal(size=(len(seqs), params.news.d_model))
        counts = []
        project = mdl._project

        def spy(rows, weights):
            if weights.shape[1] == 3 * params.config.d_model:   # Wqkv, not the pooling's proj
                counts.append(len(rows))
            return project(rows, weights)

        monkeypatch.setattr(mdl, "_project", spy)
        self.assert_per_chunk_bits(source, seqs, params.news, 3, g)
        chunks = mdl._pack(np.array([len(s) for s in seqs]))
        per_chunk = [sum(len(seqs[i]) for i in chunk) for chunk in chunks]
        assert (len(chunks) == 1) == (case == "one_chunk")
        # the oracle's forward and backward, then the encoder's: each a GEMM per chunk
        assert counts == 4 * per_chunk

    def test_rows_agree_finds_a_product_whose_rows_depend_on_the_row_count(self, monkeypatch):
        project = mdl._project

        def blocked(rows, weights):
            """A product whose rows in a block of 4 get one more ulp."""
            out = project(rows, weights)
            full = len(rows) - len(rows) % 4
            out[:full] = np.nextafter(out[:full], np.inf)
            return out

        mdl._rows_agree.cache_clear()
        try:
            assert mdl._rows_agree(np.dtype(np.float64), 3, 5)
            mdl._rows_agree.cache_clear()
            monkeypatch.setattr(mdl, "_project", blocked)
            assert not mdl._rows_agree(np.dtype(np.float64), 3, 5)
        finally:
            mdl._rows_agree.cache_clear()


class TestFloat32Training:
    """Training computes in float32 on a float32 copy of the float64 masters."""

    # Largest float32-float64 difference allowed: of a per-sample loss,
    # relative to the largest loss, and of each gradient, as a relative norm.
    # Measured up to 5.4e-7 and 4.2e-7 on these batches.
    BOUND = 1e-5

    @pytest.mark.parametrize("shape", [dict(), dict(heads=16, d_head=16, d_attn=200)],
                             ids=["tiny", "default_heads"])
    def test_float32_batch_agrees_with_float64(self, monkeypatch, shape):
        monkeypatch.setattr(mdl, "ROW_BUDGET", 4)   # several chunks, as in TestBatchedEncoders
        lookup, title_map, batch = ragged_batch()
        params = tiny_params(**shape)
        titles = title_table(title_map, lookup)

        def run(dtype):
            copy = params.astype(dtype)
            losses = mdl._batch_losses(batch, titles, lookup.matrix.astype(dtype), copy)
            ad.backward(ad.mean(losses))
            return losses.data, [t.grad for t in copy.tensors()]

        want_losses, want_grads = run(np.float64)
        losses, grads = run(np.float32)
        assert losses.dtype == np.float32 and all(g.dtype == np.float32 for g in grads)
        assert max_rel(losses, want_losses) <= self.BOUND
        for got, want in zip(grads, want_grads):
            assert np.linalg.norm(got - want) / np.linalg.norm(want) <= self.BOUND

    def test_masters_and_adam_state_stay_float64(self, monkeypatch):
        steps = []
        step = mdl.Adam.step

        def spy(self):
            step(self)
            steps.append([(p.data.dtype, p.grad.dtype, m.dtype, v.dtype)
                          for p, m, v in zip(self.params, self.m, self.v)])

        monkeypatch.setattr(mdl.Adam, "step", spy)
        logs, title_map, lookup = planted_setup()
        params, _ = mdl.train_model(logs, title_map, lookup, tiny_config(epochs=2, seed=11))
        assert len(steps) > 2
        assert {dtype for record in steps for dtypes in record for dtype in dtypes} == {
            np.dtype(np.float64)}
        assert all(t.data.dtype == np.float64 for t in params.tensors())

    def test_astype_copies_into_new_leaves(self):
        params = tiny_params()
        copy = params.astype(np.float32)
        for master, cast in zip(params.tensors(), copy.tensors()):
            assert cast is not master and cast.parents == () and cast.grad is None
            assert cast.data.dtype == np.float32
            assert np.array_equal(cast.data, master.data.astype(np.float32))
        assert copy.config is params.config and copy.news.d_in == params.news.d_in


def title_index(title_map, lookup, params):
    """The ``CorpusIndex`` of ``title_map``'s titles, as ``evaluate`` builds it."""
    corpus = [TokenizedNews(nid, "c", "s", " ".join(toks), "", " ".join(toks), "")
              for nid, toks in title_map.items()]
    return ret.CorpusIndex(corpus, lookup, params)


def planted_setup(seed=0):
    """Two topic groups; each user clicks only inside their own group."""
    rng = np.random.default_rng(seed)
    tokens = [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]
    lookup = make_lookup(tokens, 4, seed=3)
    title_map = {}
    for n in range(10):
        group = "a" if n < 5 else "b"
        title_map[f"N{n}"] = tuple(
            f"{group}{rng.integers(6)}" for _ in range(3)
        )
    from newsrec.mind import ImpressionLog
    logs = []
    for i in range(24):
        group = i % 2
        own = [f"N{n}" for n in range(5 * group, 5 * group + 5)]
        other = [f"N{n}" for n in range(5 * (1 - group), 5 * (1 - group) + 5)]
        history = tuple(rng.choice(own, size=3, replace=False))
        pos = str(rng.choice(own))
        negs = rng.choice(other, size=3, replace=False)
        cands = [(pos, 1)] + [(str(n), 0) for n in negs]
        rng.shuffle(cands)
        logs.append(ImpressionLog(str(i + 1), f"U{i % 8}", "t", history, tuple(cands)))
    return logs, title_map, lookup


class TestTrainer:
    def test_zero_epochs_returns_seeded_initialization(self):
        logs, title_map, lookup = planted_setup()
        config = tiny_config(epochs=0, seed=11)
        params, trace = mdl.train_model(logs, title_map, lookup, config)
        init = mdl.init_params(4, config)
        assert trace == []
        for got, want in zip(params.tensors(), init.tensors()):
            assert np.array_equal(got.data, want.data)

    def test_loss_decreases_on_planted_preferences(self):
        logs, title_map, lookup = planted_setup()
        config = tiny_config(epochs=5, seed=11, learning_rate=0.02)
        _, trace = mdl.train_model(logs, title_map, lookup, config)
        assert len(trace) == 5
        assert trace[-1] < trace[0]

    def test_same_seed_trains_bitwise_identically(self):
        logs, title_map, lookup = planted_setup()
        config = tiny_config(epochs=2, seed=4)
        p1, t1 = mdl.train_model(logs, title_map, lookup, config)
        p2, t2 = mdl.train_model(logs, title_map, lookup, config)
        assert t1 == t2
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a.data, b.data)

    def test_embeddings_are_frozen(self):
        logs, title_map, lookup = planted_setup()
        before = lookup.matrix.copy()
        mdl.train_model(logs, title_map, lookup, tiny_config(epochs=2))
        assert np.array_equal(lookup.matrix, before)

    def test_insufficient_negatives_warns_and_samples_with_replacement(self):
        logs, title_map, lookup = planted_setup()
        config = tiny_config(negatives=5)   # impressions carry only 3 negatives
        rng = np.random.default_rng(0)
        with pytest.warns(InsufficientNegatives):
            samples = mdl.build_train_samples(logs, title_table(title_map, lookup), config, rng)
        assert samples
        assert all(len(s.negatives) == 5 for s in samples)

    def test_negatives_come_from_same_impression_pool(self):
        logs, title_map, lookup = planted_setup()
        config = tiny_config(negatives=2)
        rng = np.random.default_rng(0)
        samples = mdl.build_train_samples(logs, title_table(title_map, lookup), config, rng)
        by_id = {log.impression_id: log for log in logs}
        assert samples
        for s, log in zip(samples, logs):
            negatives_available = {n for n, lab in log.candidates if lab == 0}
            assert set(s.negatives) <= negatives_available
            assert len(set(s.negatives)) == 2

    def test_history_is_truncated_to_most_recent(self):
        logs, title_map, lookup = planted_setup()
        config = tiny_config(max_history=2)
        rng = np.random.default_rng(0)
        samples = mdl.build_train_samples(logs, title_table(title_map, lookup), config, rng)
        for s, log in zip(samples, logs):
            assert s.history == log.history[-2:]


class TestScoreImpressions:
    def test_unknown_candidates_score_zero(self):
        logs, title_map, lookup = planted_setup()
        params = tiny_params()
        from newsrec.mind import ImpressionLog
        log = ImpressionLog("1", "U1", "t", ("N0",), (("N1", 1), ("NOPE", 0)))
        index = title_index(title_map, lookup, params)
        (result,) = mdl.score_impression_logs([log], index.by_id, index.matrix, params)
        assert result.scores[1] == 0.0
        assert result.scores[0] != 0.0
        assert result.labels == (1, 0)

    def test_cold_start_user_scores_all_zero(self):
        logs, title_map, lookup = planted_setup()
        params = tiny_params()
        from newsrec.mind import ImpressionLog
        log = ImpressionLog("1", "U1", "t", (), (("N1", 1), ("N2", 0)))
        index = title_index(title_map, lookup, params)
        (result,) = mdl.score_impression_logs([log], index.by_id, index.matrix, params)
        assert result.scores == (0.0, 0.0)

    def test_scores_are_user_dot_news(self):
        logs, title_map, lookup = planted_setup()
        params = tiny_params()
        log = logs[0]
        index = title_index(title_map, lookup, params)
        (result,) = mdl.score_impression_logs([log], index.by_id, index.matrix, params)
        hvecs = [mdl.news_vector(title_map[n], lookup, params)
                 for n in log.history[-params.config.max_history:]]
        (uvec,) = mdl.user_vectors(np.stack(hvecs), [range(len(hvecs))], params)
        for (nid, _), got in zip(log.candidates, result.scores):
            want = float(uvec @ mdl.news_vector(title_map[nid], lookup, params))
            assert got == pytest.approx(want, rel=1e-12)

    def test_inference_builds_no_graph(self, monkeypatch):
        logs, title_map, lookup = planted_setup()
        params = tiny_params()

        def no_tensor(*args, **kwargs):
            raise AssertionError("inference built an autodiff tensor")

        monkeypatch.setattr(ad, "Tensor", no_tensor)
        vec = mdl.news_vector(title_map["N0"], lookup, params)
        mdl.user_vectors(np.stack([vec, vec]), [[0, 1], []], params)
        index = title_index(title_map, lookup, params)
        mdl.score_impression_logs(logs, index.by_id, index.matrix, params)


class TestOneTitleRule:
    """Training and the corpus index turn a title into rows by ``title_rows`` alone."""

    def test_train_model_resolves_each_title_once(self, monkeypatch):
        logs, title_map, lookup = planted_setup()
        calls = []
        rule = mdl.title_rows

        def counting(tokens, lookup, max_tokens):
            calls.append(tuple(tokens))
            return rule(tokens, lookup, max_tokens)

        monkeypatch.setattr(mdl, "title_rows", counting)
        mdl.train_model(logs, title_map, lookup, tiny_config(epochs=2))
        assert sorted(calls) == sorted(title_map.values())

    def test_unencodable_titles_stay_out_of_training_and_the_index(self, monkeypatch):
        """LATE's only known token is the sixth, one past the budget of five;
        NONE has no known token.  Both are clicked, shown and in histories."""
        from dataclasses import replace

        logs, title_map, lookup = planted_setup()
        title_map = dict(title_map, LATE=("zzz",) * 5 + ("a0",), NONE=("zzz", "qqq"))
        assert len(mdl.title_rows(title_map["LATE"], lookup, 6)) == 1
        logs = [replace(log, history=(*log.history, "LATE", "NONE"),
                        candidates=(*log.candidates, ("LATE", i % 2), ("NONE", 1 - i % 2)))
                for i, log in enumerate(logs)]
        seen = []
        build = mdl.build_train_samples

        def spy(logs, usable, config, rng):
            samples = build(logs, usable, config, rng)
            seen.append((set(usable), samples))
            return samples

        monkeypatch.setattr(mdl, "build_train_samples", spy)
        config = tiny_config(epochs=1)
        params, _ = mdl.train_model(logs, title_map, lookup, config)
        ((usable, samples),) = seen
        assert samples
        for s in samples:
            assert not {"LATE", "NONE"} & {*s.history, s.positive, *s.negatives}
        index = title_index(title_map, lookup, params)
        assert set(index.skipped) == {"LATE", "NONE"}
        assert usable == set(index.by_id)


class TestUsableHistory:
    """Training, evaluation and ``recommend`` encode a user from the same clicks."""

    def test_unencodable_click_inside_the_window(self):
        from newsrec.mind import ImpressionLog

        params = tiny_params(max_history=2)
        lookup = make_lookup([f"w{i}" for i in range(6)], 4, seed=4)
        title_map = {"N1": ("w0",), "N2": ("w1", "w2"), "X": ("oov",), "N3": ("w3",),
                     "P": ("w4",), "G1": ("w5",), "G2": ("w0", "w5")}
        history = ("N1", "N2", "X", "N3")
        want = ("N2", "N3")
        assert mdl.usable_history(history, {"N1", "N2", "N3"}, 2) == want
        log = ImpressionLog("1", "U1", "t", history, (("P", 1), ("G1", 0), ("G2", 0)))
        index = title_index(title_map, lookup, params)

        (sample,) = mdl.build_train_samples([log], title_table(title_map, lookup), params.config,
                                            np.random.default_rng(0))
        assert sample.history == want

        hvecs = np.stack([mdl.news_vector(title_map[n], lookup, params) for n in want])
        (uvec,) = mdl.user_vectors(hvecs, [range(len(want))], params)
        cands = [nid for nid, _ in log.candidates]
        expected = [float(uvec @ mdl.news_vector(title_map[n], lookup, params)) for n in cands]
        (result,) = mdl.score_impression_logs([log], index.by_id, index.matrix, params)
        assert list(result.scores) == expected

        rec = ret.recommend(history, cands, index, params, top_n=3)
        assert rec.generated_from == len(want)
        assert dict(rec.entries) == dict(zip(cands, expected))


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        params = tiny_params()
        path = str(tmp_path / "model.bin")
        mdl.save_model(path, params)
        back = mdl.load_model(path)
        assert back.config == params.config
        assert back.embed_dim == params.embed_dim
        for a, b in zip(back.tensors(), params.tensors()):
            assert np.array_equal(a.data, b.data.astype(np.float32).astype(np.float64))

    def test_resave_is_byte_identical(self, tmp_path):
        params = tiny_params()
        p1 = tmp_path / "m1.bin"
        p2 = tmp_path / "m2.bin"
        mdl.save_model(str(p1), params)
        mdl.save_model(str(p2), mdl.load_model(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_scores_like_float32_original(self, tmp_path):
        lookup = make_lookup(["a", "b", "c"], 4, seed=5)
        params = tiny_params()
        path = str(tmp_path / "model.bin")
        mdl.save_model(path, params)
        back = mdl.load_model(path)
        v1 = mdl.news_vector(("a", "b"), lookup, back)
        assert np.isfinite(v1).all()

    def per_head_checkpoint(self, params):
        """An ``NRECMDL1`` checkpoint, the layout before ``NRECMDL2``: header,
        then per encoder each head's Q, K, V column block, then proj and
        query, all float32."""
        cfg = params.config
        header = json.dumps({
            "batch_size": cfg.batch_size, "d_attn": cfg.d_attn, "d_head": cfg.d_head,
            "embed_dim": params.embed_dim, "epochs": cfg.epochs, "heads": cfg.heads,
            "learning_rate": cfg.learning_rate, "max_history": cfg.max_history,
            "max_title_tokens": cfg.max_title_tokens, "negatives": cfg.negatives,
            "seed": cfg.seed,
        }, sort_keys=True).encode("utf-8")
        parts = [b"NRECMDL1", struct.pack("<I", len(header)), header]
        for enc in (params.news, params.user):
            for h in range(cfg.heads):
                for qkv in range(3):
                    first = qkv * cfg.d_model + h * cfg.d_head
                    block = enc.Wqkv[:, first:first + cfg.d_head]
                    parts.append(np.ascontiguousarray(block, dtype="<f4").tobytes())
            parts.append(enc.proj.astype("<f4").tobytes())
            parts.append(enc.query.astype("<f4").tobytes())
        return b"".join(parts)

    def test_bytes_follow_the_encoder_layout(self, tmp_path):
        params = tiny_params(heads=3)
        path = tmp_path / "model.bin"
        mdl.save_model(str(path), params)
        header = json.dumps(dict(asdict(params.config), embed_dim=params.embed_dim),
                            sort_keys=True).encode("utf-8")
        payload = np.concatenate([params.news.weights.data, params.user.weights.data])
        assert path.read_bytes() == (mdl.MODEL_MAGIC + struct.pack("<I", len(header)) + header
                                     + payload.astype("<f4").tobytes())

    def test_per_head_checkpoint_exits_2_through_evaluate(self, tmp_path, capsys, fixture_dir,
                                                          prepared, glove_lookup):
        corpus, emb = str(tmp_path / "tokenized.tsv"), str(tmp_path / "embeddings.txt")
        save_tokenized(corpus, prepared["corpus"])
        gl.save_embeddings_text(emb, glove_lookup)
        model = tmp_path / "model.bin"
        model.write_bytes(self.per_head_checkpoint(tiny_params(embed_dim=glove_lookup.dim)))
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--corpus", corpus, "--behaviors", fixture_dir.behaviors_test,
                         "--embeddings", emb, "--model", str(model),
                         "--out-dir", str(out)]) == 2
        assert f"{model} is not a model checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_init_draws_each_encoder_head_by_head(self):
        params = tiny_params(embed_dim=5, heads=3)
        cfg = params.config
        rng = np.random.default_rng(cfg.seed)
        for enc in (params.news, params.user):
            lim = math.sqrt(6.0 / (enc.d_in + cfg.d_head))
            block = rng.uniform(-lim, lim, size=(cfg.heads, 3, enc.d_in, cfg.d_head))
            for h in range(cfg.heads):
                for qkv in range(3):
                    first = qkv * cfg.d_model + h * cfg.d_head
                    assert np.array_equal(enc.Wqkv[:, first:first + cfg.d_head], block[h, qkv])
            for part, fan_in, fan_out in ((enc.proj, cfg.d_model, cfg.d_attn),
                                          (enc.query, cfg.d_attn, 1)):
                lim = math.sqrt(6.0 / (fan_in + fan_out))
                assert np.array_equal(part, rng.uniform(-lim, lim, size=part.shape))

    def test_truncated_checkpoint_is_a_config_error(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "model.bin"
        mdl.save_model(str(path), params)
        blob = path.read_bytes()
        cut_path = tmp_path / "cut.bin"
        for cut in range(len(blob)):
            cut_path.write_bytes(blob[:cut])
            with pytest.raises(ConfigError, match="cut.bin"):
                mdl.load_model(str(cut_path))

    @pytest.mark.parametrize("header", [
        b"{not json", b"\xff\xfe", b"[1, 2]", b'{"heads": 2}',
        b'{"embed_dim": "four"}', b'{"embed_dim": 4, "heads": "two"}',
        b'{"embed_dim": 4, "heads": 0}', b'{"embed_dim": 4, "heads": 1000000000000}',
    ])
    def test_garbled_header_is_a_config_error(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(mdl.MODEL_MAGIC + struct.pack("<I", len(header)) + header + b"\0" * 64)
        with pytest.raises(ConfigError, match="bad.bin has a"):
            mdl.load_model(str(path))

    @pytest.mark.parametrize("field", ["embed_dim", *(f.name for f in fields(mdl.ModelConfig))])
    def test_header_without_a_field_is_a_config_error(self, tmp_path, field):
        params = tiny_params(max_history=7)
        path = str(tmp_path / "bad.bin")
        mdl.save_model(path, params)
        header, values = mind.read_checkpoint(path, mdl.MODEL_MAGIC, "a model")
        del header[field]
        mind.write_checkpoint(path, mdl.MODEL_MAGIC, header, [values])
        with pytest.raises(ConfigError, match=f"bad.bin has a garbled header: it lacks {field}$"):
            mdl.load_model(path)

    @pytest.mark.parametrize("change", [{"embed_dim": "four"}, {"embed_dim": "4"},
                                        {"embed_dim": 4.5}, {"embed_dim": True}, {"embed_dim": 0},
                                        {"heads": "two"}, {"heads": 0}, {"heads": 10 ** 12},
                                        {"learning_rate": -1.0}], ids=json.dumps)
    def test_complete_header_with_a_bad_value_is_a_config_error(self, tmp_path, change):
        path = str(tmp_path / "bad.bin")
        mdl.save_model(path, tiny_params())
        header, values = mind.read_checkpoint(path, mdl.MODEL_MAGIC, "a model")
        mind.write_checkpoint(path, mdl.MODEL_MAGIC, dict(header, **change), [values])
        with pytest.raises(ConfigError, match="bad.bin"):
            mdl.load_model(path)

    def test_non_finite_parameter_is_a_config_error(self, tmp_path):
        params = tiny_params()
        params.user.weights.data[-1] = np.inf
        path = tmp_path / "nan.bin"
        mdl.save_model(str(path), params)
        with pytest.raises(ConfigError, match="nan.bin holds nan or infinite"):
            mdl.load_model(str(path))

    def test_oversized_header_length_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(mdl.MODEL_MAGIC + struct.pack("<I", 2 ** 31) + b'{"embed_dim": 4}')
        with pytest.raises(ConfigError, match="bad.bin"):
            mdl.load_model(str(path))
