"""Vocabulary, co-occurrence counting, cost/gradients, training, checkpoints."""

import json
import math
import re

import numpy as np
import pytest

import newsrec.glove as gl
from newsrec.errors import ConfigError, EmptyVocabulary

from conftest import rel_err


def random_matrix(rng, vocab_size, max_entries):
    """Random sparse co-occurrence instance with unique sorted coordinates."""
    n = int(rng.integers(1, max_entries + 1))
    keys = rng.choice(vocab_size * vocab_size, size=n, replace=False)
    keys.sort()
    return gl.CooccurrenceMatrix(
        vocab_size=vocab_size,
        rows=(keys // vocab_size).astype(np.int64),
        cols=(keys % vocab_size).astype(np.int64),
        vals=rng.uniform(0.1, 50.0, size=n),
    )


def entries(matrix):
    """The stored (row, col) -> value entries of a co-occurrence matrix."""
    coords = zip(matrix.rows.tolist(), matrix.cols.tolist())
    return dict(zip(coords, matrix.vals.tolist()))


def random_table(rng, vocab_size, dim):
    table = gl.init_table(vocab_size, dim, seed=int(rng.integers(1 << 30)))
    table.W[:] = rng.normal(scale=0.3, size=table.W.shape)
    table.Wt[:] = rng.normal(scale=0.3, size=table.Wt.shape)
    table.b[:] = rng.normal(scale=0.3, size=table.b.shape)
    table.bt[:] = rng.normal(scale=0.3, size=table.bt.shape)
    return table


def oracle_cost(table, matrix, config):
    """Direct per-entry summation of f(x) * (w.wt + b_i + b_j - log x)^2."""
    total = 0.0
    for i, j, x in zip(matrix.rows, matrix.cols, matrix.vals):
        f = (x / config.x_max) ** config.alpha if x < config.x_max else 1.0
        diff = float(np.dot(table.W[i], table.Wt[j])) + table.b[i] + table.bt[j] - math.log(x)
        total += f * diff * diff
    return total


class TestVocabulary:
    def test_frequency_then_index(self):
        vocab = gl.build_vocab([["a", "b", "a"]], min_count=1)
        assert vocab.index == {"a": 0, "b": 1}
        assert vocab.tokens == ("a", "b")
        assert len(vocab) == 2

    def test_min_count_filters_everything(self):
        with pytest.raises(EmptyVocabulary):
            gl.build_vocab([["a", "b"]], min_count=3)

    def test_frequency_tie_breaks_lexicographically(self):
        vocab = gl.build_vocab([["y", "x"]], min_count=1)
        assert vocab.index == {"x": 0, "y": 1}

    def test_encode_drops_oov(self):
        vocab = gl.build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.encode(["a", "b", "a", "zzz"]).tolist() == [0, 0]


class TestCooccurrence:
    def test_adjacent_pairs_window_one(self):
        vocab = gl.build_vocab([["a", "b", "a"]])
        m = gl.build_cooccurrence([["a", "b", "a"]], vocab, window=1)
        a, b = vocab.index["a"], vocab.index["b"]
        assert entries(m) == {(a, b): 2.0, (b, a): 2.0}

    def test_distance_two_pair_gets_half_weight_once(self):
        vocab = gl.build_vocab([["a", "b", "a"]])
        m = gl.build_cooccurrence([["a", "b", "a"]], vocab, window=2)
        a, b = vocab.index["a"], vocab.index["b"]
        assert entries(m) == {(a, b): 2.0, (b, a): 2.0, (a, a): 0.5}

    def test_empty_corpus_gives_empty_matrix(self):
        vocab = gl.build_vocab([["a", "b"]])
        m = gl.build_cooccurrence([], vocab, window=2)
        assert m.nnz == 0

    def test_windows_do_not_span_documents(self):
        vocab = gl.build_vocab([["a"], ["b"]])
        m = gl.build_cooccurrence([["a"], ["b"]], vocab, window=5)
        assert m.nnz == 0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        docs = [[f"w{c}" for c in rng.integers(0, 12, size=rng.integers(2, 30))]
                for _ in range(40)]
        vocab = gl.build_vocab(docs)
        m = gl.build_cooccurrence(docs, vocab, window=4)
        keys = m.rows * m.vocab_size + m.cols
        assert np.all(np.diff(keys) > 0)   # sorted by (row, col), no duplicates
        d = entries(m)
        for (i, j), v in d.items():
            assert d[(j, i)] == pytest.approx(v, abs=0)


class TestCost:
    def test_zero_parameters_log_one_entry(self):
        m = gl.CooccurrenceMatrix(2, np.array([0]), np.array([1]), np.array([1.0]))
        table = gl.init_table(2, 3, seed=1)
        for arr in (table.W, table.Wt, table.b, table.bt):
            arr[:] = 0.0
        assert gl.glove_cost(table, m, gl.GloveConfig(dim=3)) == 0.0

    def test_biases_cancel_log_e_entry(self):
        m = gl.CooccurrenceMatrix(2, np.array([0]), np.array([1]), np.array([math.e]))
        table = gl.init_table(2, 3, seed=1)
        for arr in (table.W, table.Wt):
            arr[:] = 0.0
        table.b[:] = 0.5
        table.bt[:] = 0.5
        assert gl.glove_cost(table, m, gl.GloveConfig(dim=3)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        config = gl.GloveConfig(dim=3, x_max=10.0)
        for _ in range(25):
            m = random_matrix(rng, vocab_size=4, max_entries=16)
            table = random_table(rng, 4, 3)
            assert rel_err(gl.glove_cost(table, m, config), oracle_cost(table, m, config)) <= 1e-10

    def test_weight_function_continuous_at_x_max(self):
        assert gl.cost_weight(np.array([100.0]), 100.0, 0.75)[0] == 1.0
        assert gl.cost_weight(np.array([100.0 - 1e-9]), 100.0, 0.75)[0] == pytest.approx(1.0, abs=1e-9)
        assert gl.cost_weight(np.array([250.0]), 100.0, 0.75)[0] == 1.0


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        config = gl.GloveConfig(dim=3, x_max=10.0)
        h = 1e-5
        worst = 0.0
        for _ in range(8):
            m = random_matrix(rng, vocab_size=4, max_entries=12)
            table = random_table(rng, 4, 3)
            _, grads = gl.glove_cost_grads(table, m, config)
            for name in ("W", "Wt", "b", "bt"):
                arr = getattr(table, name)
                flat = arr.reshape(-1)
                for k in range(flat.size):
                    keep = flat[k]
                    flat[k] = keep + h
                    up = gl.glove_cost(table, m, config)
                    flat[k] = keep - h
                    down = gl.glove_cost(table, m, config)
                    flat[k] = keep
                    fd = (up - down) / (2 * h)
                    analytic = grads[name].reshape(-1)[k]
                    scale = max(abs(fd), abs(analytic), 1.0)
                    worst = max(worst, abs(fd - analytic) / scale)
        assert worst <= 1e-5


class TestTraining:
    def cluster_matrix(self):
        rng = np.random.default_rng(5)
        docs = []
        left = [f"l{i}" for i in range(8)]
        right = [f"r{i}" for i in range(8)]
        for _ in range(60):
            pool = left if rng.random() < 0.5 else right
            docs.append([pool[int(rng.integers(8))] for _ in range(12)])
        vocab = gl.build_vocab(docs)
        return gl.build_cooccurrence(docs, vocab, window=4)

    def test_cost_halves_on_two_cluster_corpus(self):
        m = self.cluster_matrix()
        config = gl.GloveConfig(dim=16, x_max=20.0, epochs=50, seed=9)
        _, trace = gl.glove_train(m, config)
        assert len(trace) == 50
        assert trace[-1] <= 0.5 * trace[0]

    def test_zero_epochs_returns_initialization(self):
        m = self.cluster_matrix()
        config = gl.GloveConfig(dim=8, epochs=0, seed=9)
        table, trace = gl.glove_train(m, config)
        init = gl.init_table(m.vocab_size, 8, seed=9)
        assert trace == []
        assert np.array_equal(table.W, init.W)
        assert np.array_equal(table.Wt, init.Wt)
        assert np.array_equal(table.b, init.b)
        assert np.array_equal(table.bt, init.bt)

    def test_single_pair_fits_to_small_residual(self):
        m = gl.CooccurrenceMatrix(2, np.array([0]), np.array([1]), np.array([1.0]))
        config = gl.GloveConfig(dim=4, x_max=10.0, epochs=200, seed=2)
        table, _ = gl.glove_train(m, config)
        residual = float(np.dot(table.W[0], table.Wt[1])) + table.b[0] + table.bt[1]
        assert abs(residual) < 0.01

    def test_same_seed_gives_bitwise_identical_tables(self):
        m = self.cluster_matrix()
        config = gl.GloveConfig(dim=8, epochs=5, seed=13)
        t1, trace1 = gl.glove_train(m, config)
        t2, trace2 = gl.glove_train(m, config)
        assert trace1 == trace2
        assert np.array_equal(t1.W, t2.W)
        assert np.array_equal(t1.Wt, t2.Wt)
        assert np.array_equal(t1.b, t2.b)
        assert np.array_equal(t1.bt, t2.bt)

    def test_initialization_range_scales_with_dim(self):
        table = gl.init_table(50, 10, seed=1)
        bound = 0.5 / 10
        for arr in (table.W, table.Wt, table.b, table.bt):
            assert np.all(arr > -bound) and np.all(arr < bound)
        assert np.all(table.accW == 1.0)

    def test_trace_csv_format(self):
        assert gl.cost_trace_csv([1.5, 0.25]) == "epoch,cost\n1,1.5\n2,0.25\n"


class TestLookup:
    def test_word_vector_is_sum_of_both_tables(self):
        vocab = gl.build_vocab([["flu", "shot", "flu"]])
        m = gl.build_cooccurrence([["flu", "shot", "flu"]], vocab, window=2)
        table, _ = gl.glove_train(m, gl.GloveConfig(dim=4, epochs=3, seed=1))
        lookup = gl.EmbeddingLookup.from_table(vocab, table)
        i = vocab.index["flu"]
        vec = lookup.matrix[lookup.index["flu"]]
        assert np.array_equal(vec, table.W[i] + table.Wt[i])
        assert np.isfinite(vec).all()

    def test_oov_returns_none(self):
        lookup = gl.EmbeddingLookup.from_rows(["a"], np.ones((1, 2)))
        assert lookup.index.get("zzz") is None
        assert "zzz" not in lookup


class TestCheckpoints:
    def small_lookup(self):
        rng = np.random.default_rng(6)
        return gl.EmbeddingLookup.from_rows(["alpha", "beta", "gamma"],
                                            rng.normal(size=(3, 5)))

    def test_text_round_trip(self, tmp_path):
        lookup = self.small_lookup()
        path = str(tmp_path / "emb.txt")
        gl.save_embeddings_text(path, lookup, gl.GloveConfig(dim=5))
        back = gl.load_embeddings_text(path)
        assert back.tokens == lookup.tokens
        assert np.array_equal(back.matrix, lookup.matrix.astype(np.float32).astype(np.float64))

    def test_binary_round_trip(self, tmp_path):
        lookup = self.small_lookup()
        path = str(tmp_path / "emb.bin")
        gl.save_embeddings_binary(path, lookup, gl.GloveConfig(dim=5))
        back = gl.load_embeddings_binary(path)
        assert back.tokens == lookup.tokens
        assert np.array_equal(back.matrix, lookup.matrix.astype(np.float32).astype(np.float64))

    def test_text_and_binary_agree(self, tmp_path):
        lookup = self.small_lookup()
        tpath = str(tmp_path / "emb.txt")
        bpath = str(tmp_path / "emb.bin")
        gl.save_embeddings_text(tpath, lookup)
        gl.save_embeddings_binary(bpath, lookup)
        t = gl.load_embeddings(tpath)
        b = gl.load_embeddings(bpath)
        assert t.tokens == b.tokens
        assert np.array_equal(t.matrix, b.matrix)

    def test_text_file_with_repeated_token_is_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        gl.save_embeddings_text(str(path), self.small_lookup())
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[1:2]), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'beta' occurs")):
            gl.load_embeddings(str(path))

    def test_binary_sidecar_with_repeated_token_is_rejected(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        gl.save_embeddings_binary(path, self.small_lookup())
        meta = gl.read_sidecar(path)
        meta["tokens"][2] = "alpha"
        with open(gl.sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'alpha' occurs")):
            gl.load_embeddings(path)

    def test_sidecar_records_config(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        gl.save_embeddings_text(path, self.small_lookup(), gl.GloveConfig(dim=5, window=3))
        meta = gl.read_sidecar(path)
        assert meta["config"]["dim"] == 5
        assert meta["config"]["window"] == 3
