"""Attention-based news and user encoders with NCE training.

A news article is encoded from its (frozen) title word embeddings by
multi-head self-attention followed by additive attention pooling; a user
is encoded from their clicked-news vectors by the same architecture.
Click probability is the dot product of the two vectors.  Training
minimizes the NCE loss: for each clicked candidate, K non-clicked
candidates from the same impression form the negatives, and the loss is
-log softmax(positive | positive + negatives), averaged over samples.

Both encoders take row sequences: a title is its ``title_rows`` (resolved
once, in ``train_model`` and ``retrieval.CorpusIndex``) of the embedding
matrix, a history its ``max_history`` most recent encodable clicks
(``usable_history``) in the news vectors; there is no positional signal.
An encoder takes a whole batch of such ragged sequences and packs them
instead of padding them: sorted by length, their rows are cut into chunks
of at most ``ROW_BUDGET`` rows, and attention runs once per run of
equal-length sequences as (sequences, heads, length, d_head) products,
so no row attends to padding and nothing is masked.  A source row that
repeats (a word in many titles, a news item in many histories) is
projected once: consecutive chunks whose distinct source rows fit
``TABLE_ROWS`` share one Q|K|V table, one projection of those rows, from
which each chunk takes its rows.  Every projection (``_project``) runs
as GEMMs of exactly ``GEMM_ROWS`` rows, the last zero-padded, so a row
gets the same bits in any product: a chunk gets from a table the bits of
a projection of its own, and an item gets the same vector alone as in
any batch, at any model shape.  Pooling is a segment softmax over each
sequence's rows.  In training a batch is four autodiff nodes over the
two encoders' weights: the news encoder over the batch's distinct
titles, the user encoder over rows of its output, ``sample_loss`` and
the mean.  Each but the mean carries a backward derived here by hand;
inference calls the same forward and builds no node.  An encoder node's
tape keeps, per chunk, only its attention weights and its pooling's tanh
rows and weights: the backward projects each Q|K|V table again and
rebuilds each chunk's (rows, d_model) attention output from it, with the
forward's own code and so its bits, trading a little recomputation for
memory (Chen et al., "Training Deep Nets with Sublinear Memory Cost",
2016).

Each encoder's weights are one flat float64 array (``EncoderParams``),
and ``model.bin`` stores the two arrays as they are, in float32.  The
encoders, ``sample_loss`` and their backwards compute in the dtype of
their inputs.  Training is mixed precision: ``Adam`` owns the float64
weights, the masters, with their float64 moments, and the float32
working weights, cast once per run like the embeddings, that each step
computes with.  The step's float32 gradients go to one blocked pass over
each tensor, which casts a block of ``ADAM_BLOCK`` gradients to float64,
steps that block's moments and masters, and writes the masters' float32
cast back into the working weights, so no step copies a whole tensor.
Inference computes in float64 over the loaded weights.

Inference encodes each news item once: ``retrieval.CorpusIndex`` holds
the ``news_vectors`` of a whole corpus, and ``evaluate``, ``recommend`` and
``similar`` all score from it.  ``user_vectors`` encodes a batch of users
from rows of that table, a cold-start user as the zero vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import Container, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .config import ModelConfig, check
from .errors import (
    AllDegenerate,
    ConfigError,
    DivergedCost,
    EmptyHistory,
    InsufficientNegatives,
    NoKnownTokens,
    NonfiniteParameter,
)
from .glove import EmbeddingLookup
from .metrics import ImpressionResult
from .mind import ImpressionLog, read_checkpoint, write_checkpoint

MODEL_MAGIC = b"NRECMDL2"
# Rows of one packed chunk of sequences: bounds the memory an encoder
# call holds for its backward pass.
ROW_BUDGET = 256
# Rows of each GEMM in ``_project``: a row's bits do not depend on its
# batch.  Of 64, 128 and 256, 64 pads a query's few rows least and costs a
# training step about as much as the others.
GEMM_ROWS = 64
# Distinct source rows of one Q|K|V table, shared by consecutive chunks:
# bounds the table (3 MiB in float32 at the default 16x16 heads) when a
# call spans a whole corpus.
TABLE_ROWS = 1024
# Elements of one block of an Adam step: bounds the step's float64
# scratch to three 128 KiB blocks, however large a tensor is.
ADAM_BLOCK = 16384


@dataclass(slots=True)
class EncoderParams:
    """One attention encoder, all of its weights in one flat parameter tensor.

    ``parts`` cuts any array laid out like ``weights`` into ``Wqkv``, the
    Q, K and V projections side by side as (d_in, 3 * heads * d_head) with
    head h of each in columns h*d_head:(h+1)*d_head, then the pooling
    layer's ``proj`` (heads * d_head, d_attn) and ``query`` (d_attn,).
    """

    weights: ad.Tensor
    d_in: int
    d_model: int
    d_attn: int

    def parts(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = self.d_in * 3 * self.d_model
        b = a + self.d_model * self.d_attn
        return (flat[:a].reshape(self.d_in, 3 * self.d_model),
                flat[a:b].reshape(self.d_model, self.d_attn), flat[b:])

    @property
    def Wqkv(self) -> np.ndarray:
        return self.parts(self.weights.data)[0]

    @property
    def proj(self) -> np.ndarray:
        return self.parts(self.weights.data)[1]

    @property
    def query(self) -> np.ndarray:
        return self.parts(self.weights.data)[2]


@dataclass(slots=True)
class ModelParams:
    embed_dim: int
    config: ModelConfig
    news: EncoderParams
    user: EncoderParams

    def tensors(self) -> list[ad.Tensor]:
        return [self.news.weights, self.user.weights]

    def astype(self, dtype) -> ModelParams:
        """A copy whose encoders' weights are cast to ``dtype``, as new leaf tensors."""
        news, user = (replace(enc, weights=ad.Tensor(enc.weights.data.astype(dtype)))
                      for enc in (self.news, self.user))
        return replace(self, news=news, user=user)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def _init_encoder(rng: np.random.Generator, d_in: int, cfg: ModelConfig) -> EncoderParams:
    # Q, K and V are drawn head by head as one (heads, 3, d_in, d_head)
    # block, then transposed to Wqkv's columns: that keeps each seed's
    # initial weights, and so every seeded output.
    block = _glorot(rng, d_in, cfg.d_head, (cfg.heads, 3, d_in, cfg.d_head))
    wqkv = block.transpose(2, 1, 0, 3).reshape(d_in, 3 * cfg.d_model)
    proj = _glorot(rng, cfg.d_model, cfg.d_attn, (cfg.d_model, cfg.d_attn))
    query = _glorot(rng, cfg.d_attn, 1, (cfg.d_attn,))
    return EncoderParams(ad.Tensor(np.concatenate([wqkv.ravel(), proj.ravel(), query])),
                         d_in=d_in, d_model=cfg.d_model, d_attn=cfg.d_attn)


def init_params(embed_dim: int, config: ModelConfig) -> ModelParams:
    """Seeded Glorot-uniform init; draw order is fixed, so fully reproducible.
    Sizes too large for numpy to allocate raise ConfigError."""
    check(config)
    if embed_dim < 1:
        raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
    rng = np.random.default_rng(config.seed)
    try:
        news = _init_encoder(rng, embed_dim, config)
        user = _init_encoder(rng, config.d_model, config)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(
            f"heads={config.heads}, d_head={config.d_head} and d_attn={config.d_attn} "
            f"size a model numpy cannot allocate: {exc}") from exc
    return ModelParams(embed_dim=embed_dim, config=config, news=news, user=user)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max subtraction.

    The row max is taken column by column, one ``np.maximum`` per column:
    over the short rows of attention scores that is about three times
    faster than ``np.max`` along the last axis, and a max is exact in any
    order (a NaN propagates as there), so the result keeps its bits.  The
    sum stays ``np.sum``, whose pairwise order sets them.
    """
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    e = np.exp(x - top[..., None])
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient with respect to a softmax's input, given its output ``y``
    and the gradient ``g`` with respect to that output."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def _runs(lengths: np.ndarray):
    """(first row, sequences, length) for each run of equal consecutive lengths."""
    bounds = np.flatnonzero(np.diff(lengths)) + 1
    row = 0
    for first, stop in zip([0, *bounds.tolist()], [*bounds.tolist(), len(lengths)]):
        count, length = stop - first, int(lengths[first])
        yield row, count, length
        row += count * length


def _segment_starts(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths)[:-1]))


def _project(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights`` with each row's result independent of the others.

    A BLAS may group a row's sums by the product's row count (OpenBLAS
    0.3.31 on an AVX-512 CPU does for about a third of the shapes tried,
    2 heads of 3 over 50-dim embeddings among them; numpy sends one row
    to gemv), so the product runs as GEMMs of exactly ``GEMM_ROWS`` rows,
    the last zero-padded, into one output: each row gets the bits it gets
    alone.
    """
    n, d_in = rows.shape
    full = n - n % GEMM_ROWS
    out = np.empty((-(-n // GEMM_ROWS), GEMM_ROWS, weights.shape[1]),
                   dtype=np.result_type(rows, weights))
    np.matmul(rows[:full].reshape(-1, GEMM_ROWS, d_in), weights, out=out[:full // GEMM_ROWS])
    if full < n:
        tail = np.zeros((GEMM_ROWS, d_in), dtype=rows.dtype)
        tail[:n - full] = rows[full:]
        np.matmul(tail, weights, out=out[-1])
    return out.reshape(-1, weights.shape[1])[:n]


def _scatter_add(target: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(target, index, rows)`` for a 1-D ``index`` of rows, bit for bit.

    A stable sort ranks each entry among the earlier ones with its index;
    the entries of one rank hold distinct indices, so each rank is one
    fancy-indexed ``+=``.  Rank by rank, a target row gets its rows in
    ``index`` order, the order in which ``np.add.at`` adds them.
    """
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    rank = np.arange(len(index)) - np.repeat(first, np.diff(np.append(first, len(index))))
    by_rank = order[np.argsort(rank, kind="stable")]
    bounds = np.cumsum(np.bincount(rank))
    for start, stop in zip([0, *bounds[:-1].tolist()], bounds.tolist()):
        sel = by_rank[start:stop]
        target[index[sel]] += rows[sel]


def _heads(rows: np.ndarray, count: int, length: int, d_head: int) -> np.ndarray:
    """Packed (count * length, 3 * d_model) Q|K|V rows -> views (3, count, heads, length, d_head)."""
    heads = rows.shape[1] // (3 * d_head)
    return rows.reshape(count, length, 3, heads, d_head).transpose(2, 0, 3, 1, 4)


def self_attention(qkv: np.ndarray, d_head: int,
                   lengths: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multi-head scaled dot-product self-attention within each sequence.

    ``qkv`` holds the Q|K|V projections (``Wqkv``) of the sequences' rows,
    packed as consecutive rows, ``lengths`` rows each.  Attention runs
    once per run of equal lengths as rank-4 (sequences, heads, length,
    d_head) products, so nothing is padded or masked.  Returns the (rows,
    heads*d_head) output and the attention weights of each run, which the
    backward pass reuses.
    """
    attn = []
    for row, count, length in _runs(lengths):
        q, k, _ = _heads(qkv[row : row + count * length], count, length, d_head)
        attn.append(softmax((q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_head))))
    return _attend(qkv, d_head, lengths, attn), attn


def _attend(qkv: np.ndarray, d_head: int, lengths: np.ndarray,
            attn: list[np.ndarray]) -> np.ndarray:
    """The (rows, heads*d_head) attention output: each run's attention
    weights applied to its V rows.  The forward computes its output here
    and the backward rebuilds it here, so the two agree bit for bit."""
    out = np.empty((len(qkv), qkv.shape[1] // 3), dtype=qkv.dtype)
    for (row, count, length), a in zip(_runs(lengths), attn):
        v = _heads(qkv[row : row + count * length], count, length, d_head)[2]
        rows = out[row : row + count * length].reshape(count, length, -1, d_head)
        np.matmul(a, v, out=rows.transpose(0, 2, 1, 3))
    return out


def additive_pool(seq: np.ndarray, enc: EncoderParams,
                  lengths: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Collapse each sequence of ``lengths`` consecutive rows to one vector
    by learned weights.

    The weights are a softmax over each sequence's rows (a segment softmax
    by ``reduceat``).  Returns the (sequences, d) vectors and
    (hidden, weights), which the backward pass reuses.
    """
    starts = _segment_starts(lengths)
    hidden = np.tanh(_project(seq, enc.proj))
    scores = np.einsum("ij,j->i", hidden, enc.query)   # per row, unlike gemv
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), lengths))
    weights = e / np.repeat(np.add.reduceat(e, starts), lengths)
    return np.add.reduceat(weights[:, None] * seq, starts), (hidden, weights)


def _pack(lengths: np.ndarray) -> list[np.ndarray]:
    """Sequence indices sorted by length and cut into chunks of at most
    ``ROW_BUDGET`` rows; a longer sequence is a chunk of its own."""
    order = np.argsort(lengths, kind="stable")
    chunks, first, rows = [], 0, 0
    for i, n in enumerate(lengths[order].tolist()):
        if rows + n > ROW_BUDGET and i > first:
            chunks.append(order[first:i])
            first, rows = i, 0
        rows += n
    chunks.append(order[first:])
    return chunks


def _tables(seqs: Sequence[np.ndarray], lengths: np.ndarray):
    """The packed chunks of one encoder call, in runs that share a Q|K|V table.

    A run is consecutive chunks whose distinct source rows number at most
    ``TABLE_ROWS``; a chunk with more is a run of its own.  Yields, per
    run, the source rows its table projects and, per chunk, its sequence
    indices and the places of its rows among those (``slice(None)`` where
    they are the chunk's rows as they are).  A call whose distinct rows
    all fit, as a training batch's do, is one run, found without walking
    its chunks.  A call of one chunk (a query's) projects its rows as they
    are, with no table: finding its distinct rows would add about a
    third to a one-title call's time.
    """
    chunks = [(chunk, np.concatenate([seqs[i] for i in chunk])) for chunk in _pack(lengths)]
    if len(chunks) == 1:
        chunk, idx = chunks[0]
        yield idx, [(chunk, slice(None))]
        return
    whole = _table(chunks)
    if len(whole[0]) <= TABLE_ROWS:
        yield whole
        return
    run, seen = [], set()
    for chunk, idx in chunks:
        rows = idx.tolist()
        seen.update(rows)
        if run and len(seen) > TABLE_ROWS:
            yield _table(run)
            run, seen = [], set(rows)
        run.append((chunk, idx))
    yield _table(run)


def _table(run: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, list[tuple]]:
    """A run's distinct source rows and, per chunk, (sequence indices, places)."""
    distinct, place = np.unique(np.concatenate([idx for _, idx in run]), return_inverse=True)
    stops = np.cumsum([len(idx) for _, idx in run]).tolist()
    return distinct, [(chunk, place[stop - len(idx):stop])
                      for (chunk, idx), stop in zip(run, stops)]


def _forward(source: np.ndarray, seqs: Sequence[np.ndarray], enc: EncoderParams,
             d_head: int, keep: bool = False) -> tuple[np.ndarray, list[tuple]]:
    """Attention then pooling for every sequence of row indices into ``source``.

    This is the one forward of both encoders, in training and inference.
    Q, K and V are one ``_project`` per run of chunks (``_tables``), over
    that run's distinct source rows, from which each chunk takes its rows
    with the bits a projection of its own would give them.
    Returns the (len(seqs), d_model) vectors and, if ``keep``, per run its
    source rows and per chunk what the backward pass needs: its sequence
    indices, the places of its rows in the table, its lengths, its
    attention weights and its pooling's ``hidden`` and ``weights``.
    Neither the Q|K|V table nor the (rows, d_model) attention output is
    kept: the backward projects the table again and rebuilds the output
    from it (``_attend``).
    """
    lengths = np.array([len(s) for s in seqs])
    out = np.empty((len(seqs), enc.d_model), dtype=np.result_type(source, enc.weights.data))
    tape = []
    for rows, chunks in _tables(seqs, lengths):
        table = _project(source[rows], enc.Wqkv)
        kept = []
        for chunk, at in chunks:
            sizes = lengths[chunk]
            seq, attn = self_attention(table[at], d_head, sizes)
            out[chunk], (hidden, weights) = additive_pool(seq, enc, sizes)
            if keep:
                kept.append((chunk, at, sizes, attn, hidden, weights))
        if keep:
            tape.append((rows, kept))
    return out, tape


def _backward(g: np.ndarray, source: np.ndarray, tape: list[tuple], enc: EncoderParams,
              d_head: int, d_source: np.ndarray | None) -> None:
    """Add the gradients of ``_forward`` into the encoder's weights and,
    if ``d_source`` is given, into the source rows.  Each run's Q|K|V
    table is projected again, once, and each chunk takes its rows from it
    as the forward did.  From those rows, before its Q, K and V are
    overwritten by their gradients, ``_attend`` rebuilds the chunk's
    attention output with the forward's bits, into a buffer that the
    gradient of that output then overwrites.  It overwrites the tape's
    ``hidden`` with the gradient of the pooling's tanh input, and so runs
    once."""
    wqkv, proj, query = enc.parts(enc.weights.data)
    d_wqkv, d_proj, d_query = enc.parts(enc.weights.grad)
    scale = 1.0 / math.sqrt(d_head)
    for rows, chunks in tape:
        inputs = source[rows]
        table = _project(inputs, wqkv)
        for chunk, at, sizes, attn, hidden, weights in chunks:
            qkv = table[at]
            seq = _attend(qkv, d_head, sizes, attn)
            starts = _segment_starts(sizes)
            # pooling: vec = sum_i weights_i seq_i, weights = softmax(tanh(seq @ proj) @ query)
            g_rows = np.repeat(g[chunk], sizes, axis=0)
            d_w = np.einsum("ij,ij->i", seq, g_rows)
            d_scores = weights * (d_w - np.repeat(np.add.reduceat(weights * d_w, starts), sizes))
            d_query += hidden.T @ d_scores
            d_hidden = hidden
            np.multiply(hidden, hidden, out=d_hidden)
            np.subtract(1.0, d_hidden, out=d_hidden)
            d_hidden *= d_scores[:, None]
            d_hidden *= query
            d_proj += seq.T @ d_hidden
            d_seq = np.matmul(d_hidden, proj.T, out=seq)
            g_rows *= weights[:, None]
            d_seq += g_rows
            # attention, per run of equal lengths: out = attn @ v, attn = softmax(q @ k.T * scale)
            for (row, count, length), a in zip(_runs(sizes), attn):
                stop = row + count * length
                q, k, v = _heads(qkv[row:stop], count, length, d_head)
                d_out = d_seq[row:stop].reshape(count, length, -1, d_head).transpose(0, 2, 1, 3)
                d_s = softmax_grad(a, d_out @ v.swapaxes(-1, -2))
                d_s *= scale
                # each gradient overwrites its Q, K or V once that is read for the last time
                np.matmul(a.swapaxes(-1, -2), d_out, out=v)
                d_q = d_s @ k
                np.matmul(d_s.swapaxes(-1, -2), q, out=k)
                q[...] = d_q
            d_wqkv += inputs[at].T @ qkv
            if d_source is not None:
                _scatter_add(d_source, rows[at], qkv @ wqkv.T)


def _encoder_node(source: np.ndarray | ad.Tensor, seqs: Sequence[np.ndarray],
                  enc: EncoderParams, d_head: int) -> ad.Tensor:
    """One batch through one encoder as one autodiff node.

    Its parents are the encoder's weights and, when ``source`` is a
    tensor, the source (the user encoder's news vectors).  Between the
    forward and the backward the node holds ``_forward``'s tape: per chunk
    the attention weights and the pooling's ``hidden`` and ``weights``,
    not the Q|K|V table or the attention output, which the backward
    rebuilds.  The backward overwrites the tape's ``hidden``, so it runs
    once.
    """
    linked = isinstance(source, ad.Tensor)
    data = source.data if linked else source
    vecs, tape = _forward(data, seqs, enc, d_head, keep=True)
    out = ad.Tensor(vecs, (source, enc.weights) if linked else (enc.weights,))

    def bwd(g):
        if not tape:
            raise RuntimeError("an encoder node's backward runs once: it reuses the forward's buffers")
        _backward(g, data, tape, enc, d_head, source.grad if linked else None)
        tape.clear()

    out.bwd = bwd
    return out


def title_rows(tokens: Sequence[str], lookup: EmbeddingLookup, max_tokens: int) -> np.ndarray:
    """Embedding-matrix rows of the known tokens among a title's first
    ``max_tokens``, the news encoder's input; empty if it cannot be encoded."""
    return np.array([lookup.index[tok] for tok in tokens[:max_tokens] if tok in lookup],
                    dtype=np.intp)


def _checked(seqs: Sequence[Sequence[int]], error: type, what: str) -> list[np.ndarray]:
    """The row sequences of one encoder call; none, or an empty one, raises ``error``."""
    seqs = [np.asarray(s, dtype=np.intp) for s in seqs]
    if not seqs or min(len(s) for s in seqs) < 1:
        raise error(f"every {what} to encode must hold at least one row")
    return seqs


def encode_news(titles: Sequence[Sequence[int]], words: np.ndarray,
                params: ModelParams) -> ad.Tensor:
    """B titles, each rows of the ``words`` embedding matrix -> (B, d_model)
    news vectors, one autodiff node.  Embeddings stay constant."""
    return _encoder_node(words, _checked(titles, NoKnownTokens, "title"),
                         params.news, params.config.d_head)


def encode_user(news: ad.Tensor, histories: Sequence[Sequence[int]],
                params: ModelParams) -> ad.Tensor:
    """S histories, each a list of rows of the (B, d_model) ``news`` ->
    (S, d_model) user vectors, one autodiff node."""
    return _encoder_node(news, _checked(histories, EmptyHistory, "user history"),
                         params.user, params.config.d_head)


def score_click(user_vec: np.ndarray, news_vec: np.ndarray) -> float:
    """Click score: the dot product of a user vector and a news vector."""
    return float(user_vec @ news_vec)


def sample_loss(users: ad.Tensor, news: ad.Tensor, candidates: np.ndarray) -> ad.Tensor:
    """-log p per sample, as one autodiff node of shape (S,).

    ``candidates`` is (S, 1 + K) rows of ``news``, the clicked one first;
    user s scores its candidates by dot product with row s of ``users``,
    and p is the softmax of those scores at the click (log-sum-exp with
    max subtraction).
    """
    cand = np.asarray(candidates, dtype=np.intp)
    vecs = news.data[cand]
    scores = (vecs @ users.data[:, :, None])[:, :, 0]
    top = np.max(scores, axis=1)
    e = np.exp(scores - top[:, None])
    total = np.sum(e, axis=1)
    out = ad.Tensor(np.log(total) + top - scores[:, 0], (users, news))

    def bwd(g):
        d_scores = e * (g / total)[:, None]
        d_scores[:, 0] -= g
        users.grad += (d_scores[:, None, :] @ vecs)[:, 0]
        rows = d_scores[:, :, None] * users.data[:, None, :]
        _scatter_add(news.grad, cand.ravel(), rows.reshape(-1, rows.shape[-1]))

    out.bwd = bwd
    return out


class Adam:
    """Adam with bias correction, over float64 masters and moments, for
    weights that each training step computes with in float32.

    ``params`` are the flat master tensors and ``working`` their float32
    casts, one per master: ``step`` takes the float32 gradients of
    ``working``, steps each master, and writes its new float32 cast into
    the working tensor's ``data``.  The step's float64 scratch is three
    blocks of at most ``ADAM_BLOCK`` elements, kept from step to step.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[ad.Tensor], working: Sequence[ad.Tensor], lr: float):
        self.params = list(params)
        self.working = list(working)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.scratch = np.empty((3, min(ADAM_BLOCK, max(p.data.size for p in self.params))))

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """``p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)`` after the moment
        updates, ``ADAM_BLOCK`` elements at a time.

        Each block's gradient is cast into the first scratch block, and
        each temporary of the expression is written into one of the others,
        with the same operations in the same order as over a whole tensor,
        so the masters get the same bits.  Then the block's masters are
        cast into the working weights; one beyond float32's range becomes
        inf there, for the caller to check.
        """
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        with np.errstate(over="ignore"):
            for p, w, m, v, grad in zip(self.params, self.working, self.m, self.v, grads):
                for start in range(0, p.data.size, ADAM_BLOCK):
                    at = slice(start, start + ADAM_BLOCK)
                    pb, mb, vb = p.data[at], m[at], v[at]
                    g, step, denom = self.scratch[:, :len(pb)]
                    np.copyto(g, grad[at])
                    mb *= self.beta1
                    mb += np.multiply(1.0 - self.beta1, g, out=step)
                    vb *= self.beta2
                    np.multiply(g, g, out=step)
                    vb += np.multiply(1.0 - self.beta2, step, out=step)
                    np.divide(mb, b1c, out=step)
                    np.multiply(self.lr, step, out=step)
                    np.divide(vb, b2c, out=denom)
                    np.sqrt(denom, out=denom)
                    denom += self.eps
                    step /= denom
                    pb -= step
                    np.copyto(w.data[at], pb, casting="same_kind")


@dataclass(frozen=True, slots=True)
class TrainSample:
    history: tuple[str, ...]
    positive: str
    negatives: tuple[str, ...]


def usable_history(history: Sequence[str], usable: Container[str], max_history: int) -> tuple[str, ...]:
    """The clicks a user is encoded from, the same in training, evaluation
    and ``recommend``: keep the usable ids, then the last ``max_history``."""
    return tuple(nid for nid in history if nid in usable)[-max_history:]


def build_train_samples(
    logs: Sequence[ImpressionLog],
    usable: Container[str],
    config: ModelConfig,
    rng: np.random.Generator,
) -> list[TrainSample]:
    """One sample per clicked candidate: history, the click, K negatives.

    Negatives are drawn uniformly without replacement from the same
    impression's non-clicked candidates; if fewer than K exist they are
    drawn with replacement, and one warning after the loop counts the
    impressions that did so.  Impressions with no ``usable`` history or
    negative yield no samples.  A K too large for numpy to draw raises
    ConfigError.
    """
    samples: list[TrainSample] = []
    replaced = 0
    k = config.negatives
    for log in logs:
        history = usable_history(log.history, usable, config.max_history)
        if not history:
            continue
        positives = [nid for nid, lab in log.candidates if lab == 1 and nid in usable]
        pool = [nid for nid, lab in log.candidates if lab == 0 and nid in usable]
        if not positives or not pool:
            continue
        replace = len(pool) < k
        replaced += replace
        for pos in positives:
            try:
                chosen = rng.choice(len(pool), size=k, replace=replace)
            except (ValueError, MemoryError) as exc:
                raise ConfigError(f"negatives={k} is more than numpy can draw: {exc}") from exc
            samples.append(TrainSample(
                history=history,
                positive=pos,
                negatives=tuple(pool[int(c)] for c in chosen),
            ))
    if replaced:
        warnings.warn(f"{replaced} impression(s) with fewer than {k} non-clicked candidates "
                      f"drew their negatives with replacement", InsufficientNegatives)
    return samples


def _check_float32(params: ModelParams) -> None:
    """Raise NonfiniteParameter for a nan/inf weight of the float32
    ``params`` (a master beyond float32's range casts to inf), naming its part."""
    for tag, enc in (("news", params.news), ("user", params.user)):
        for name, part in zip(("Wqkv", "proj", "query"), enc.parts(enc.weights.data)):
            if not np.isfinite(part).all():
                raise NonfiniteParameter(f"model parameter {tag}.{name} is nan/inf in float32")


def train_model(
    logs: Sequence[ImpressionLog],
    news_tokens: Mapping[str, Sequence[str]],
    lookup: EmbeddingLookup,
    config: ModelConfig,
) -> tuple[ModelParams, list[float]]:
    """Fit both encoders with Adam; returns (params, per-epoch mean loss).

    Word embeddings are inputs, not parameters: they are never updated.
    They and the weights are cast to float32 once, and each step computes
    in float32 (see ``_train_batch``); the returned weights are the float64
    masters, whose float32 cast each step checks finite.
    One seed drives initialization, negative sampling, and the per-epoch
    shuffle, so identical inputs give identical parameters.
    """
    params = init_params(lookup.dim, config)
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    sample_rng = np.random.default_rng(seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    titles = {nid: rows for nid, tokens in news_tokens.items()   # the encodable news
              if len(rows := title_rows(tokens, lookup, config.max_title_tokens))}
    samples = build_train_samples(logs, titles, config, sample_rng)
    if not samples:
        raise AllDegenerate(
            "no trainable samples: every impression lacks usable history, "
            "a clicked candidate, or an encodable negative"
        )
    words = lookup.matrix.astype(np.float32)
    working = params.astype(np.float32)
    optimizer = Adam(params.tensors(), working.tensors(), config.learning_rate)
    trace: list[float] = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(samples))
        epoch_losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [samples[i] for i in order[start : start + config.batch_size]]
            epoch_losses.extend(_train_batch(batch, titles, words, working, optimizer))
        trace.append(math.fsum(epoch_losses) / len(epoch_losses))
    return params, trace


def _batch_losses(batch: Sequence[TrainSample], titles: Mapping[str, np.ndarray],
                  words: np.ndarray, params: ModelParams) -> ad.Tensor:
    """The (S,) per-sample losses of one batch: three autodiff nodes, the
    news encoder over the ``titles`` of the batch's distinct news, the
    user encoder over their rows, and ``sample_loss``."""
    ids = list(dict.fromkeys(nid for s in batch for nid in (*s.history, s.positive, *s.negatives)))
    row = {nid: i for i, nid in enumerate(ids)}
    news = encode_news([titles[nid] for nid in ids], words, params)
    users = encode_user(news, [[row[nid] for nid in s.history] for s in batch], params)
    return sample_loss(users, news, [[row[s.positive], *(row[nid] for nid in s.negatives)]
                                     for s in batch])


def _train_batch(batch: Sequence[TrainSample], titles: Mapping[str, np.ndarray],
                 words: np.ndarray, working: ModelParams, optimizer: Adam) -> list[float]:
    """One Adam step on one batch; returns the per-sample losses.

    The batch runs in float32, on the float32 ``words`` and ``working``,
    the float32 weights whose masters ``optimizer`` holds; its float32
    gradients go to the Adam step, which writes the masters' new float32
    cast into ``working``.  The batch's graph is freed on return, before
    the next batch builds its own.

    Weights that grow past float32 overflow in the forward, which numpy
    would warn of; the step raises DivergedCost for the non-finite loss,
    and ``_check_float32`` NonfiniteParameter for the weights, instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        losses = _batch_losses(batch, titles, words, working)
        batch_loss = ad.mean(losses)
        if not math.isfinite(batch_loss.data):
            raise DivergedCost(
                f"training loss became non-finite (learning_rate={optimizer.lr})"
            )
        ad.backward(batch_loss)
    optimizer.step([t.grad for t in working.tensors()])
    _check_float32(working)
    return losses.data.tolist()


def news_vectors(titles: Sequence[Sequence[int]], words: np.ndarray,
                 params: ModelParams) -> np.ndarray:
    """(B, d_model) news vectors for inference: the training forward, no graph."""
    return _forward(words, _checked(titles, NoKnownTokens, "title"),
                    params.news, params.config.d_head)[0]


def news_vector(tokens: Sequence[str], lookup: EmbeddingLookup, params: ModelParams) -> np.ndarray:
    """One title's news vector from its tokens, a batch of one."""
    max_tokens = params.config.max_title_tokens
    rows = title_rows(tokens, lookup, max_tokens)
    if not len(rows):
        raise NoKnownTokens(f"no embeddable token among {list(tokens[:max_tokens])!r}")
    return news_vectors([rows], lookup.matrix, params)[0]


def user_vectors(news: np.ndarray, histories: Sequence[Sequence[int]],
                 params: ModelParams) -> np.ndarray:
    """(S, d_model) user vectors for inference, history s a list of rows of
    the (B, d_model) ``news``: the training forward, no graph.  A user
    with no usable click (cold start) gets the zero vector."""
    users = np.zeros((len(histories), params.config.d_model))
    warm = [i for i, history in enumerate(histories) if len(history)]
    if warm:
        seqs = _checked([histories[i] for i in warm], EmptyHistory, "user history")
        users[warm] = _forward(news, seqs, params.user, params.config.d_head)[0]
    return users


def score_impression_logs(
    logs: Sequence[ImpressionLog],
    by_id: Mapping[str, int],
    news: np.ndarray,
    params: ModelParams,
) -> list[ImpressionResult]:
    """Score every candidate of every impression, preserving input order.

    ``news`` holds the vectors of the encodable news and ``by_id`` maps a
    news id to its row; ``evaluate`` passes the ``retrieval.CorpusIndex``
    that ``recommend`` and ``similar`` use.  The users are encoded in one
    call.  Candidates without a row (unknown id or no embeddable token)
    score 0.0, as does every candidate of a user with no usable history
    (cold start).
    """
    cfg = params.config
    histories = [[by_id[nid] for nid in usable_history(log.history, by_id, cfg.max_history)]
                 for log in logs]
    users = user_vectors(news, histories, params)
    results = []
    for log, user in zip(logs, users):
        scores = tuple(score_click(user, news[by_id[nid]]) if nid in by_id else 0.0
                       for nid, _ in log.candidates)
        results.append(ImpressionResult(
            impression_id=log.impression_id,
            labels=tuple(label for _, label in log.candidates),
            scores=scores,
        ))
    return results


def save_model(path: str, params: ModelParams) -> None:
    """A ``mind.write_checkpoint`` file: magic ``NRECMDL2``, the config
    JSON with ``embed_dim``, then ``params.news.weights`` and
    ``params.user.weights``, each as ``EncoderParams.parts`` cuts it."""
    header = dict(asdict(params.config), embed_dim=params.embed_dim)
    write_checkpoint(path, MODEL_MAGIC, header, [params.news.weights.data, params.user.weights.data])


def load_model(path: str, blob: bytes | None = None) -> ModelParams:
    """Read a ``save_model`` checkpoint into one float64 array per encoder;
    ``blob`` is the file's bytes, when the caller has read them already.

    Another magic (an ``NRECMDL1`` file among them), a header without
    every ``ModelConfig`` field and ``embed_dim``, a truncated or garbled
    part of the file, or a nan/inf parameter raises ConfigError naming
    ``path``.
    """
    raw, values = read_checkpoint(path, MODEL_MAGIC, "a model checkpoint", blob=blob)
    names = [f.name for f in fields(ModelConfig)]
    missing = [name for name in ("embed_dim", *names) if name not in raw]
    try:
        if missing:
            raise ConfigError(f"it lacks {', '.join(missing)}")
        embed_dim = raw["embed_dim"]
        if type(embed_dim) is not int or embed_dim < 1:
            raise ConfigError(f"embed_dim must be an integer >= 1, got {embed_dim!r}")
        config = check(ModelConfig(**{name: raw[name] for name in names}))
    except ConfigError as exc:
        raise ConfigError(f"{path} has a garbled header: {exc}") from exc
    d_model, d_attn = config.d_model, config.d_attn
    sizes = [d_in * 3 * d_model + d_model * d_attn + d_attn for d_in in (embed_dim, d_model)]
    if values.size != sum(sizes):
        raise ConfigError(
            f"{path} holds {4 * values.size} tensor bytes where its config needs "
            f"{4 * sum(sizes)}; the checkpoint is truncated or has trailing bytes"
        )
    if not np.isfinite(values).all():
        raise ConfigError(f"{path} holds nan or infinite parameters")
    news, user = (EncoderParams(ad.Tensor(part.astype(np.float64)), d_in=d_in,
                                d_model=d_model, d_attn=d_attn)
                  for part, d_in in ((values[:sizes[0]], embed_dim), (values[sizes[0]:], d_model)))
    return ModelParams(embed_dim=embed_dim, config=config, news=news, user=user)
