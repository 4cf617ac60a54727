"""Vocabulary, co-occurrence counting, cost/gradients, training, checkpoints."""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

import newsrec._kernels as kern
import newsrec.glove as gl
import newsrec.mind as mind
from newsrec.errors import ConfigError, EmptyVocabulary

from conftest import glove_cost_grads, rel_err


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


def oracle_cooccurrence(documents, tokens, window):
    """Per-position reference table: 1/k per pair of in-vocabulary tokens
    k apart, added in the order document, distance, position."""
    table = {}
    for doc in documents:
        ids = [tokens.index(tok) for tok in doc if tok in tokens]
        for k in range(1, min(window + 1, len(ids))):
            for p in range(len(ids) - k):
                i, j = ids[p], ids[p + k]
                table[i, j] = table.get((i, j), 0.0) + 1.0 / k
                if i != j:
                    table[j, i] = table.get((j, i), 0.0) + 1.0 / k
    keys = sorted(table)
    return (np.array([i for i, _ in keys], dtype=np.int32),
            np.array([j for _, j in keys], dtype=np.int32),
            np.array([table[key] for key in keys], dtype=np.float64))


def random_corpus(rng, n_docs, alphabet):
    """Documents of 0 to 40 tokens over a small alphabet, so tokens repeat
    within a document; about one document in five is empty or one token."""
    lengths = rng.choice([0, 1, *range(2, 41)], size=n_docs,
                         p=[0.1, 0.1, *[0.8 / 39] * 39])
    return [[f"w{c}" for c in rng.integers(0, alphabet, size=n)] for n in lengths]


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


def oracle_vocab(documents, min_count):
    """Per-token reference vocabulary: count each token in a dict, keep
    those seen ``min_count`` times, order by (-count, token)."""
    counts = {}
    for doc in documents:
        for tok in doc:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted((-n, tok) for tok, n in counts.items() if n >= min_count)
    return tuple(tok for _, tok in kept)


class TestVocabulary:
    def test_frequency_then_index(self):
        assert gl.build_vocab(gl.encode_documents([["a", "b", "a"]]), min_count=1) == ("a", "b")

    def test_min_count_filters_everything(self):
        with pytest.raises(EmptyVocabulary):
            gl.build_vocab(gl.encode_documents([["a", "b"]]), min_count=3)

    def test_frequency_tie_breaks_lexicographically(self):
        assert gl.build_vocab(gl.encode_documents([["y", "x"]]), min_count=1) == ("x", "y")

    @pytest.mark.parametrize("seed", range(6))
    def test_ids_match_per_token_oracle(self, seed):
        """Small alphabets make count ties; first-seen order differs from
        the final order; rare "oov" tokens fall under min_count."""
        rng = np.random.default_rng(seed)
        docs = random_corpus(rng, n_docs=50, alphabet=int(rng.integers(2, 40)))
        docs = [[tok if rng.random() > 0.02 else f"oov{rng.integers(1000)}" for tok in doc]
                for doc in docs]
        corpus = gl.encode_documents(docs)
        for min_count in (1, 2, 3, 7):
            want = oracle_vocab(docs, min_count)
            assert gl.build_vocab(corpus, min_count=min_count) == want

    def test_encode_documents_keeps_first_seen_order_and_lengths(self):
        corpus = gl.encode_documents(iter([["b", "a", "b"], [], ["c", "a"]]))
        assert corpus.tokens == ("b", "a", "c")
        assert corpus.ids.tolist() == [0, 1, 0, 2, 1]
        assert corpus.lengths.tolist() == [3, 0, 2]
        assert corpus.ids.dtype == corpus.lengths.dtype == np.int64


class TestCooccurrence:
    def test_adjacent_pairs_window_one(self):
        corpus = gl.encode_documents([["a", "b", "a"]])
        tokens = gl.build_vocab(corpus)
        m = gl.build_cooccurrence(corpus, tokens, window=1)
        a, b = tokens.index("a"), tokens.index("b")
        assert entries(m) == {(a, b): 2.0, (b, a): 2.0}

    def test_distance_two_pair_gets_half_weight_once(self):
        corpus = gl.encode_documents([["a", "b", "a"]])
        tokens = gl.build_vocab(corpus)
        m = gl.build_cooccurrence(corpus, tokens, window=2)
        a, b = tokens.index("a"), tokens.index("b")
        assert entries(m) == {(a, b): 2.0, (b, a): 2.0, (a, a): 0.5}

    def test_empty_corpus_gives_empty_matrix(self):
        tokens = gl.build_vocab(gl.encode_documents([["a", "b"]]))
        m = gl.build_cooccurrence(gl.encode_documents([]), tokens, window=2)
        assert m.nnz == 0

    def test_windows_do_not_span_documents(self):
        corpus = gl.encode_documents([["a"], ["b"]])
        tokens = gl.build_vocab(corpus)
        m = gl.build_cooccurrence(corpus, tokens, window=5)
        assert m.nnz == 0

    def test_out_of_vocabulary_tokens_are_dropped(self):
        tokens = gl.build_vocab(gl.encode_documents([["a", "a", "b"]]), min_count=2)
        m = gl.build_cooccurrence(gl.encode_documents([["a", "b", "zzz", "a"]]), tokens, window=1)
        assert entries(m) == {(0, 0): 1.0}   # the two a's are adjacent once b and zzz go

    @staticmethod
    def assert_matches_oracle(window):
        rng = np.random.default_rng(window % 1000)
        for _ in range(4):
            docs = random_corpus(rng, n_docs=60, alphabet=int(rng.integers(3, 30)))
            # min_count 3 over part of the corpus leaves rare tokens out, and
            # about a tenth of the tokens are swapped for one never counted
            tokens = gl.build_vocab(gl.encode_documents(docs[:40] + [["w0"] * 3]), min_count=3)
            docs = [[tok if rng.random() > 0.1 else "oov" for tok in doc] for doc in docs]
            m = gl.build_cooccurrence(gl.encode_documents(docs), tokens, window=window)
            rows, cols, vals = oracle_cooccurrence(docs, tokens, window)
            assert (m.rows.tobytes(), m.cols.tobytes(), m.vals.tobytes()) == (
                rows.tobytes(), cols.tobytes(), vals.tobytes())

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 6, 7, 8, 10**12])
    def test_matches_per_position_oracle_bitwise(self, window):
        self.assert_matches_oracle(window)

    @pytest.mark.parametrize("block_docs", [1, 3, None])
    @pytest.mark.parametrize("window", [1, 3, 10**12])
    def test_block_size_keeps_the_oracle_bits(self, monkeypatch, window, block_docs):
        """Blocks of 1 document, of 3, and of the whole corpus."""
        if block_docs is not None:
            monkeypatch.setattr(gl, "_block_stop",
                                lambda pairs, start, _: min(start + block_docs, pairs.size - 1))
        else:
            monkeypatch.setattr(gl, "BLOCK_PAIRS", 1 << 62)
        self.assert_matches_oracle(window)

    @pytest.mark.parametrize("budget", [1, 10, 200])
    def test_edge_documents_keep_the_oracle_bits(self, monkeypatch, budget):
        """Empty documents, one document with far more pairs than a block,
        and a window longer than every document."""
        monkeypatch.setattr(gl, "BLOCK_PAIRS", budget)
        rng = np.random.default_rng(budget)
        long_doc = [f"w{c}" for c in rng.integers(0, 9, size=120)]
        docs = [[], ["w1", "w2"], [], long_doc, [], [], ["w3"], ["w2", "w1", "w2"], []]
        corpus = gl.encode_documents(docs)
        tokens = gl.build_vocab(corpus)
        for window in (2, 7, 10**12):
            m = gl.build_cooccurrence(corpus, tokens, window=window)
            rows, cols, vals = oracle_cooccurrence(docs, tokens, window)
            assert (m.rows.tobytes(), m.cols.tobytes(), m.vals.tobytes()) == (
                rows.tobytes(), cols.tobytes(), vals.tobytes())

    def test_blocks_hold_whole_documents_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(gl, "BLOCK_PAIRS", 10)
        pairs = np.array([0, 4, 8, 30, 30, 33, 40])   # document d has pairs[d+1] - pairs[d]
        assert gl._block_stop(pairs, 0, 0) == 2       # 8 pairs fit, 30 do not
        assert gl._block_stop(pairs, 2, 0) == 3       # 22 pairs: a block of its own
        assert gl._block_stop(pairs, 3, 0) == 6       # 0 + 3 + 7 pairs
        assert gl._block_stop(pairs, 0, 8 * 30) == 4  # a larger table, larger blocks

    def test_peak_memory_is_the_table_plus_one_block(self):
        """On about 100k tokens the count stays under the table (int32
        keys and float64 values, with one of them copied while a block is
        merged: 20 B an entry), 8 B a token for the int32 ids and their
        document bounds, and one block of ``BLOCK_PAIRS`` forward pairs at
        56 B a pair: about two directed pairs, each an int32 key and group,
        their pieces and one int64 sort code.  Forming every pair of the
        corpus at once takes about 6 times that."""
        rng = np.random.default_rng(2)
        lengths = rng.integers(20, 60, size=2500)
        docs = [[f"w{c}" for c in rng.zipf(1.3, size=n) % 400] for n in lengths]
        corpus = gl.encode_documents(docs)
        tokens = gl.build_vocab(corpus)
        tracemalloc.start()
        try:
            m = gl.build_cooccurrence(corpus, tokens, window=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.ids.size > 90_000
        assert (m.rows.dtype, m.cols.dtype) == (np.int32, np.int32)
        assert peak < 20 * m.nnz + 8 * corpus.ids.size + 56 * gl.BLOCK_PAIRS

    @pytest.mark.parametrize("window", [1, 3, 10**12])
    def test_lexsort_where_the_sort_code_overflows_keeps_the_oracle_bits(
            self, monkeypatch, window):
        """A vocabulary too large for a key and a group to share one int64
        sorts its blocks with ``np.lexsort``, to the same table."""
        monkeypatch.setattr(gl, "_CODE_BITS", 0)
        monkeypatch.setattr(gl, "BLOCK_PAIRS", 50)
        self.assert_matches_oracle(window)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        docs = [[f"w{c}" for c in rng.integers(0, 12, size=rng.integers(2, 30))]
                for _ in range(40)]
        corpus = gl.encode_documents(docs)
        tokens = gl.build_vocab(corpus)
        m = gl.build_cooccurrence(corpus, tokens, window=4)
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
            _, grads = glove_cost_grads(table, m, config)
            for name in ("W", "Wt", "b", "bt"):
                arr = getattr(table, name)
                # arr is a strided view of table.params: perturb it in place
                for k in range(arr.size):
                    keep = arr.flat[k]
                    arr.flat[k] = keep + h
                    up = gl.glove_cost(table, m, config)
                    arr.flat[k] = keep - h
                    down = gl.glove_cost(table, m, config)
                    arr.flat[k] = keep
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
        corpus = gl.encode_documents(docs)
        return gl.build_cooccurrence(corpus, gl.build_vocab(corpus), window=4)

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

    def test_each_epoch_visits_the_seeded_permutation_as_int32(self, monkeypatch):
        m = self.cluster_matrix()
        seen, sweep = [], gl.adagrad_sweep
        monkeypatch.setattr(gl, "adagrad_sweep",
                            lambda order, *args: seen.append(order.copy()) or sweep(order, *args))
        gl.glove_train(m, gl.GloveConfig(dim=4, epochs=3, seed=13))
        rng = np.random.default_rng(13)
        assert len(seen) == 3
        for order in seen:
            assert order.dtype == np.int32
            assert np.array_equal(order, rng.permutation(m.nnz))

    @pytest.mark.parametrize("n", [1, 7, 65_537, 256_876])
    def test_int32_shuffle_draws_the_permutation_and_its_state(self, n):
        """``shuffle`` of an int32 range gives ``permutation``'s order and
        leaves the generator where ``permutation`` does."""
        shuffled, permuted = np.random.default_rng(n), np.random.default_rng(n)
        order = np.arange(n, dtype=np.int32)
        shuffled.shuffle(order)
        assert np.array_equal(order, permuted.permutation(n))
        assert shuffled.bit_generator.state == permuted.bit_generator.state
        assert shuffled.integers(1 << 62) == permuted.integers(1 << 62)

    def test_peak_memory_is_the_state_order_and_one_block(self, monkeypatch):
        """One epoch over 200k entries holds the matrix (int32 rows and
        columns, float64 values) and the int32 visit order, 20 B an entry,
        beside the table and its AdaGrad sums, and the temporaries of about
        one block of ``_BLOCK`` entries.  Full-length weights or logs, or
        an int64 order, do not fit."""
        monkeypatch.setattr(kern, "_BLOCK", 1024)
        rng = np.random.default_rng(3)
        vocab, nnz = 2000, 200_000
        keys = np.sort(rng.choice(vocab * vocab, size=nnz, replace=False))
        rows, cols = (keys // vocab).astype(np.int32), (keys % vocab).astype(np.int32)
        vals = rng.uniform(0.5, 50.0, size=nnz)
        tracemalloc.start()
        try:
            m = gl.CooccurrenceMatrix(vocab, rows.copy(), cols.copy(), vals.copy())
            table, _ = gl.glove_train(m, gl.GloveConfig(dim=8, epochs=1, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = table.params.nbytes + table.acc.nbytes
        assert peak < state + 20 * nnz + 384 * kern._BLOCK

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

    def test_initialization_draws_w_wt_b_bt_in_order(self):
        v, dim, seed = 7, 5, 21
        table = gl.init_table(v, dim, seed)
        rng = np.random.default_rng(seed)
        for name, shape in (("W", (v, dim)), ("Wt", (v, dim)), ("b", v), ("bt", v)):
            want = rng.uniform(-0.5 / dim, 0.5 / dim, size=shape)
            assert np.array_equal(getattr(table, name), want), name
        assert table.params.shape == table.acc.shape == (2 * v, dim + 1)
        assert np.array_equal(table.acc, np.ones((2 * v, dim + 1)))


class TestLookup:
    def test_word_vector_is_sum_of_both_tables(self):
        corpus = gl.encode_documents([["flu", "shot", "flu"]])
        tokens = gl.build_vocab(corpus)
        m = gl.build_cooccurrence(corpus, tokens, window=2)
        table, _ = gl.glove_train(m, gl.GloveConfig(dim=4, epochs=3, seed=1))
        lookup = gl.EmbeddingLookup.from_rows(tokens, table.word_vectors())
        i = tokens.index("flu")
        vec = lookup.matrix[lookup.index["flu"]]
        assert np.array_equal(vec, table.W[i] + table.Wt[i])
        assert np.isfinite(vec).all()

    def test_oov_returns_none(self):
        lookup = gl.EmbeddingLookup.from_rows(["a"], np.ones((1, 2)))
        assert lookup.index.get("zzz") is None
        assert "zzz" not in lookup


def per_value_text(lookup):
    """The ``embeddings.txt`` bytes with every component through ``_format_value``."""
    m32 = lookup.matrix.astype(np.float32)
    return "".join(tok + " " + " ".join(gl._format_value(v) for v in row) + "\n"
                   for tok, row in zip(lookup.tokens, m32))


def float32_rows(values, width):
    """``values`` (float32) as rows of ``width``, padded with 1.0."""
    values = np.asarray(values, dtype=np.float32)
    values = np.concatenate([values, np.ones(-len(values) % width, dtype=np.float32)])
    return values.reshape(-1, width)


def random_bit_patterns(seed, n):
    """Finite float32 values with uniformly drawn sign, exponent field (0 is
    zero or subnormal) and mantissa, so every magnitude class turns up."""
    rng = np.random.default_rng(seed)
    sign = rng.integers(0, 2, size=n, dtype=np.uint32) << np.uint32(31)
    exponent = rng.integers(0, 255, size=n, dtype=np.uint32) << np.uint32(23)
    mantissa = rng.integers(0, 1 << 23, size=n, dtype=np.uint32)
    return (sign | exponent | mantissa).view(np.float32)


def boundary_values():
    """Signed zeros, the smallest subnormal, the decimal thresholds where
    numpy's ``str`` switches notation with their neighbours, and every
    power of two with its neighbours."""
    f32 = np.float32
    centres = [f32(1e-4), f32(1e8), f32(1e16)]
    centres += [np.ldexp(f32(1.0), e) for e in range(-149, 128)]
    out = [f32(0.0), f32(-0.0), f32(1.4e-45)]
    for c in centres:
        out += [np.nextafter(c, f32(0.0)), c, np.nextafter(c, f32(np.inf))]
    out = np.array(out, dtype=np.float32)
    return np.concatenate([out, -out])


class TestTextWriter:
    """``save_embeddings_text`` formats blocks through numpy's ``str`` cast;
    its bytes must be those of a per-value ``_format_value`` writer."""

    def check(self, tmp_path, matrix):
        lookup = gl.EmbeddingLookup.from_rows([f"t{i}" for i in range(len(matrix))], matrix)
        path = tmp_path / "emb.txt"
        gl.save_embeddings_text(str(path), lookup)
        text = path.read_text(encoding="utf-8")
        assert text == per_value_text(lookup)
        assert "e" not in text  # tokens t0, t1, ... hold none, so no exponents either
        return text

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_bit_patterns(self, tmp_path, seed):
        values = random_bit_patterns(seed, 24_000)
        assert np.isfinite(values).all()
        self.check(tmp_path, float32_rows(values, 40))  # 600 rows, six blocks

    def test_boundary_values(self, tmp_path):
        self.check(tmp_path, float32_rows(boundary_values(), 9))

    def test_init_table_at_dim_300(self, tmp_path):
        """The +-0.5/dim init puts many components below 1e-4, where
        numpy's ``str`` switches to scientific notation."""
        vectors = gl.init_table(vocab_size=100, dim=300, seed=3).word_vectors()
        assert (np.abs(vectors) < 1e-4).mean() > 0.01
        self.check(tmp_path, vectors)

    @pytest.mark.parametrize("block_values", [1, 20, 10_000])
    def test_blocks_of_any_size_give_the_same_bytes(self, tmp_path, monkeypatch, block_values):
        monkeypatch.setattr(gl, "_FORMAT_BLOCK_VALUES", block_values)
        self.check(tmp_path, float32_rows(random_bit_patterns(2, 700), 7))


class TestCheckpoints:
    def small_lookup(self):
        rng = np.random.default_rng(6)
        return gl.EmbeddingLookup.from_rows(["alpha", "beta", "gamma"],
                                            rng.normal(size=(3, 5)))

    def test_text_round_trip(self, tmp_path):
        lookup = self.small_lookup()
        path = str(tmp_path / "emb.txt")
        gl.save_embeddings_text(path, lookup)
        back = gl.load_embeddings_text(path)
        assert back.tokens == lookup.tokens
        assert np.array_equal(back.matrix, lookup.matrix.astype(np.float32).astype(np.float64))

    def test_binary_round_trip(self, tmp_path):
        lookup = self.small_lookup()
        path = str(tmp_path / "emb.bin")
        gl.save_embeddings_binary(path, lookup)
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

    @pytest.mark.parametrize("text, message", [
        ("a 1 2\nb 3\n", " has inconsistent row widths [1, 2]"),
        ("a 1 2\nb 3 x\n", ":2: embedding component is not a number"),
        ("a 1 x\nb 3\n", ":1: embedding component is not a number"),
        ("a\nb\n", " has tokens but no vector components"),
    ])
    def test_malformed_text_file_names_path_and_fault(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}{message}")):
            gl.load_embeddings(str(path))

    @pytest.mark.parametrize("text, message", [
        ("a 1 2\nb 3 4\nc 5 6\nd 7\n", " has inconsistent row widths [1, 2]"),
        ("a 1 2\nb 3 4\nc 5 6\nd 7 x\n", ":4: embedding component is not a number"),
    ])
    def test_faults_are_found_past_the_first_parse_chunk(self, tmp_path, monkeypatch,
                                                         text, message):
        monkeypatch.setattr(gl, "_TEXT_CHUNK_LINES", 2)
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}{message}")):
            gl.load_embeddings(str(path))

    def test_text_round_trip_over_several_parse_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gl, "_TEXT_CHUNK_LINES", 2)
        lookup = self.small_lookup()
        path = str(tmp_path / "emb.txt")
        gl.save_embeddings_text(path, lookup)
        back = gl.load_embeddings_text(path)
        assert back.tokens == lookup.tokens
        assert np.array_equal(back.matrix, lookup.matrix.astype(np.float32).astype(np.float64))

    def test_binary_bytes_follow_the_container_layout(self, tmp_path):
        """Magic, ``<I`` header length, sorted-key JSON header, then the
        rows as little-endian float32."""
        lookup = self.small_lookup()
        path = tmp_path / "emb.bin"
        gl.save_embeddings_binary(str(path), lookup)
        header = b'{"dim": 5, "tokens": ["alpha", "beta", "gamma"]}'
        want = (b"NRECGLV2" + struct.pack("<I", len(header)) + header
                + lookup.matrix.astype("<f4").tobytes())
        assert path.read_bytes() == want

    def write_binary(self, path, header, matrix):
        mind.write_checkpoint(str(path), gl.BINARY_MAGIC, header, [matrix])

    def test_binary_header_with_repeated_token_is_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        self.write_binary(path, {"dim": 5, "tokens": ["alpha", "beta", "alpha"]},
                          self.small_lookup().matrix)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'alpha' occurs")):
            gl.load_embeddings(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_text_file_with_non_finite_component_is_rejected(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"a 1 2\nb 3 {value}\nc 5 6\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'b' has a nan")):
            gl.load_embeddings(str(path))

    def test_binary_file_with_nan_row_is_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        matrix = self.small_lookup().matrix
        matrix[1:] = np.nan
        self.write_binary(path, {"dim": 5, "tokens": ["alpha", "beta", "gamma"]}, matrix)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'beta' has a nan")):
            gl.load_embeddings(str(path))

    def save(self, fmt, path, lookup):
        """Write ``lookup`` to ``path`` as ``fmt``, and return the path."""
        save = gl.save_embeddings_text if fmt == "text" else gl.save_embeddings_binary
        save(str(path), lookup)
        return str(path)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("only", [{"gamma", "alpha"}, {"beta", "zeta"}, {"zeta"}, set()])
    def test_only_loads_the_rows_of_those_tokens(self, tmp_path, fmt, only):
        path = self.save(fmt, tmp_path / "emb", self.small_lookup())
        whole = gl.load_embeddings(path)
        some = gl.load_embeddings(path, only)
        assert some.tokens == tuple(tok for tok in whole.tokens if tok in only)
        assert some.matrix.dtype == whole.matrix.dtype
        for tok in some.tokens:
            assert np.array_equal(some.matrix[some.index[tok]], whole.matrix[whole.index[tok]])

    @pytest.mark.parametrize("text, message", [
        ("a 1 2\nb 3 x\nc 5 6\n", ":2: embedding component is not a number"),
        ("a 1 2\nb 3\nc 5 6\n", " has inconsistent row widths [1, 2]"),
        ("a 1 2\nb 3 inf\nc 5 6\n", ": token 'b' has a nan or infinite component"),
        ("a 1 2\nb 3 4\nc 5 6\nb 7 8\n", ": token 'b' occurs more than once"),
    ])
    def test_only_checks_the_rows_it_reads_and_skips_the_rest(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}{message}")):
            gl.load_embeddings(str(path), {"a", "b"})
        assert gl.load_embeddings(str(path), {"c"}).tokens == ("c",)

    def test_only_checks_the_binary_rows_it_reads(self, tmp_path):
        path = tmp_path / "emb.bin"
        matrix = self.small_lookup().matrix
        matrix[1] = np.nan
        self.write_binary(path, {"dim": 5, "tokens": ["alpha", "beta", "alpha"]}, matrix)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'beta' has a nan")):
            gl.load_embeddings(str(path), {"beta"})
        with pytest.raises(ConfigError, match=re.escape(f"{path}: token 'alpha' occurs")):
            gl.load_embeddings(str(path), {"alpha"})
        assert gl.load_embeddings(str(path), {"gamma"}).tokens == ()
