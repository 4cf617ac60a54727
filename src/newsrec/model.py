"""Attention-based news and user encoders with NCE training.

A news article is encoded from its (frozen) title word embeddings by
multi-head self-attention followed by additive attention pooling; a user
is encoded from their clicked-news vectors by the same architecture.
Click probability is the dot product of the two vectors.  Training
minimizes the NCE loss: for each clicked candidate, K non-clicked
candidates from the same impression form the negatives, and the loss is
-log softmax(positive | positive + negatives), averaged over samples.

Sequences stay ragged (no padding, no positional signal); titles are
truncated to the first ``max_title_tokens`` tokens and histories to the
``max_history`` most recent encodable clicks (``usable_history``).
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import Container, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import (
    AllDegenerate,
    ConfigError,
    DivergedCost,
    EmptyHistory,
    InsufficientNegatives,
    NoKnownTokens,
    NonfiniteParameter,
    check_field_types,
)
from .glove import EmbeddingLookup
from .metrics import ImpressionResult
from .mind import ImpressionLog, write_text_atomic

MODEL_MAGIC = b"NRECMDL1"


@dataclass(frozen=True, slots=True)
class ModelConfig:
    heads: int = 16
    d_head: int = 16
    d_attn: int = 200
    negatives: int = 4
    max_title_tokens: int = 30
    max_history: int = 50
    learning_rate: float = 1e-3
    epochs: int = 3
    batch_size: int = 64
    seed: int = 1

    @property
    def d_model(self) -> int:
        return self.heads * self.d_head

    def validate(self) -> "ModelConfig":
        check_field_types(self)
        for name in ("heads", "d_head", "d_attn", "negatives", "max_title_tokens",
                     "max_history", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        return self


@dataclass(slots=True)
class EncoderParams:
    """One attention encoder: Q, K, V projections of shape
    (d_in, heads * d_head), head h in columns h*d_head:(h+1)*d_head, plus
    the pooling layer."""

    Wq: ad.Tensor
    Wk: ad.Tensor
    Wv: ad.Tensor
    proj: ad.Tensor
    query: ad.Tensor

    def tensors(self) -> list[ad.Tensor]:
        return [self.Wq, self.Wk, self.Wv, self.proj, self.query]


@dataclass(slots=True)
class ModelParams:
    embed_dim: int
    config: ModelConfig
    news: EncoderParams
    user: EncoderParams

    def tensors(self) -> list[ad.Tensor]:
        return self.news.tensors() + self.user.tensors()


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def _from_head_major(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(heads, 3, d_in, d_head) per-head Q, K, V -> three (d_in, heads*d_head)."""
    heads, _, d_in, d_head = block.shape
    fused = block.transpose(1, 2, 0, 3).reshape(3, d_in, heads * d_head)
    return fused[0], fused[1], fused[2]


def _to_head_major(enc: EncoderParams, heads: int) -> np.ndarray:
    """Inverse of ``_from_head_major``."""
    fused = np.stack([enc.Wq.data, enc.Wk.data, enc.Wv.data])
    _, d_in, d_model = fused.shape
    return fused.reshape(3, d_in, heads, d_model // heads).transpose(2, 0, 1, 3)


def _encoder_shapes(input_dim: int, cfg: ModelConfig) -> list[tuple[int, ...]]:
    """One encoder as it is drawn and stored: per-head Q, K, V blocks, proj, query."""
    return [(cfg.heads, 3, input_dim, cfg.d_head), (cfg.d_model, cfg.d_attn), (cfg.d_attn,)]


def _make_encoder(block: np.ndarray, proj: np.ndarray, query: np.ndarray, tag: str) -> EncoderParams:
    Wq, Wk, Wv = (ad.parameter(w, f"{tag}.{name}")
                  for w, name in zip(_from_head_major(block), ("Wq", "Wk", "Wv")))
    return EncoderParams(Wq=Wq, Wk=Wk, Wv=Wv, proj=ad.parameter(proj, f"{tag}.proj"),
                         query=ad.parameter(query, f"{tag}.query"))


def _init_encoder(rng: np.random.Generator, input_dim: int, cfg: ModelConfig, tag: str) -> EncoderParams:
    block, proj, query = _encoder_shapes(input_dim, cfg)
    return _make_encoder(_glorot(rng, input_dim, cfg.d_head, block),
                         _glorot(rng, cfg.d_model, cfg.d_attn, proj),
                         _glorot(rng, cfg.d_attn, 1, query), tag)


def init_params(embed_dim: int, config: ModelConfig) -> ModelParams:
    """Seeded Glorot-uniform init; draw order is fixed, so fully reproducible."""
    config.validate()
    if embed_dim < 1:
        raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
    rng = np.random.default_rng(config.seed)
    news = _init_encoder(rng, embed_dim, config, "news")
    user = _init_encoder(rng, config.d_model, config, "user")
    return ModelParams(embed_dim=embed_dim, config=config, news=news, user=user)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max subtraction."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient with respect to a softmax's input, given its output ``y``
    and the gradient ``g`` with respect to that output."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def self_attention(x: np.ndarray, enc: EncoderParams,
                   d_head: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Multi-head scaled dot-product self-attention over rows of ``x``.

    All heads run at once: each projection is split into (heads, n, d_head)
    and the scores are one batched matmul.  Returns the (n, heads*d_head)
    output and (q, k, v, attn), which the backward pass reuses.
    """
    n, d_model = x.shape[0], enc.Wq.shape[1]
    heads = d_model // d_head
    q, k, v = ((x @ w.data).reshape(n, heads, d_head).transpose(1, 0, 2)
               for w in (enc.Wq, enc.Wk, enc.Wv))
    attn = softmax((q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(d_head)))
    out = (attn @ v).transpose(1, 0, 2).reshape(n, d_model)
    return out, (q, k, v, attn)


def additive_pool(seq: np.ndarray, enc: EncoderParams) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Collapse a (length, d) sequence to one d-vector by learned weights.

    Returns the vector and (hidden, weights), which the backward pass reuses.
    """
    hidden = np.tanh(seq @ enc.proj.data)
    weights = softmax(hidden @ enc.query.data)
    return weights @ seq, (hidden, weights)


def _encode(x: np.ndarray, enc: EncoderParams, d_head: int) -> np.ndarray:
    return additive_pool(self_attention(x, enc, d_head)[0], enc)[0]


def _encode_sequence(x: ad.Tensor, enc: EncoderParams, d_head: int) -> ad.Tensor:
    """Attention then pooling as one autodiff node with a hand-derived backward.

    The node's parents are ``x`` and the encoder's five tensors; ``x`` gets
    a gradient only when it requires one (the user encoder's history).
    """
    seq, (q, k, v, attn) = self_attention(x.data, enc, d_head)
    vec, (hidden, weights) = additive_pool(seq, enc)
    out = ad.Tensor(vec, (x, *enc.tensors()))
    n, d_model = seq.shape
    heads = d_model // d_head

    def bwd(g):
        # pooling: vec = weights @ seq, weights = softmax(tanh(seq @ proj) @ query)
        d_scores = softmax_grad(weights, seq @ g)
        enc.query.grad += hidden.T @ d_scores
        d_hidden = np.outer(d_scores, enc.query.data) * (1.0 - hidden * hidden)
        enc.proj.grad += seq.T @ d_hidden
        d_seq = np.outer(weights, g) + d_hidden @ enc.proj.data.T
        # attention, per head: seq = attn @ v, attn = softmax(q @ k.T / sqrt(d_head))
        d_heads = d_seq.reshape(n, heads, d_head).transpose(1, 0, 2)
        d_s = softmax_grad(attn, d_heads @ v.transpose(0, 2, 1)) * (1.0 / math.sqrt(d_head))
        grads = (d_s @ k, d_s.transpose(0, 2, 1) @ q, attn.transpose(0, 2, 1) @ d_heads)
        for w, d in zip((enc.Wq, enc.Wk, enc.Wv), grads):
            d = d.transpose(1, 0, 2).reshape(n, d_model)
            w.grad += x.data.T @ d
            if x.requires_grad:
                x.grad += d @ w.data.T

    out.bwd = bwd
    return out


def title_embedding_rows(tokens: Sequence[str], lookup: EmbeddingLookup, max_tokens: int) -> np.ndarray:
    """Stack embeddings of the first ``max_tokens`` known tokens of a title."""
    rows = []
    for tok in tokens[:max_tokens]:
        vec = lookup.get(tok)
        if vec is not None:
            rows.append(vec)
    if not rows:
        raise NoKnownTokens(
            f"no embeddable token among {list(tokens[:max_tokens])!r}"
        )
    return np.stack(rows)


def encode_news(tokens: Sequence[str], lookup: EmbeddingLookup, params: ModelParams) -> ad.Tensor:
    """Title tokens -> news vector (d_model,).  Embeddings stay constant."""
    x = ad.constant(title_embedding_rows(tokens, lookup, params.config.max_title_tokens))
    return _encode_sequence(x, params.news, params.config.d_head)


def encode_user(history: ad.Tensor, params: ModelParams) -> ad.Tensor:
    """Matrix of clicked-news vectors (m, d_model) -> user vector (d_model,)."""
    if history.ndim != 2 or history.shape[0] < 1:
        raise EmptyHistory(f"user history must be a nonempty matrix, got shape {history.shape}")
    return _encode_sequence(history, params.user, params.config.d_head)


def score_click(user_vec: ad.Tensor, news_vec: ad.Tensor) -> ad.Tensor:
    return ad.dot(user_vec, news_vec)


def cold_start_user_vector(params: ModelParams) -> np.ndarray:
    """Users with no usable history score candidates from the zero vector."""
    return np.zeros(params.config.d_model)


def nce_probability(pos_score: float, neg_scores: Sequence[float]) -> float:
    """exp(pos) / (exp(pos) + sum exp(neg)), computed with max subtraction."""
    scores = [float(pos_score)] + [float(s) for s in neg_scores]
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    return exps[0] / math.fsum(exps)


def nce_loss(probabilities: Sequence[float]) -> float:
    """Mean negative log probability over a batch of NCE probabilities."""
    if len(probabilities) == 0:
        raise AllDegenerate("cannot average a loss over zero samples")
    return math.fsum(-math.log(p) for p in probabilities) / len(probabilities)


def sample_loss(user_vec: ad.Tensor, cand_vecs: Sequence[ad.Tensor]) -> ad.Tensor:
    """-log p for one sample; ``cand_vecs[0]`` is the clicked candidate."""
    scores = ad.stack([score_click(user_vec, c) for c in cand_vecs])
    return ad.sub(ad.logsumexp(scores), ad.pick(scores, 0))


class Adam:
    """Adam with bias correction; operates on autodiff parameter tensors."""

    def __init__(self, params: Sequence[ad.Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@dataclass(frozen=True, slots=True)
class TrainSample:
    history: tuple[str, ...]
    positive: str
    negatives: tuple[str, ...]


def _encodable_ids(news_tokens: Mapping[str, Sequence[str]], lookup: EmbeddingLookup,
                   max_tokens: int) -> set[str]:
    ok = set()
    for nid, tokens in news_tokens.items():
        if any(tok in lookup for tok in tokens[:max_tokens]):
            ok.add(nid)
    return ok


def usable_history(history: Sequence[str], usable: Container[str], max_history: int) -> tuple[str, ...]:
    """The clicks a user is encoded from, the same in training, evaluation
    and ``recommend``: keep the usable ids, then the last ``max_history``."""
    return tuple(nid for nid in history if nid in usable)[-max_history:]


def build_train_samples(
    logs: Sequence[ImpressionLog],
    news_tokens: Mapping[str, Sequence[str]],
    lookup: EmbeddingLookup,
    config: ModelConfig,
    rng: np.random.Generator,
) -> list[TrainSample]:
    """One sample per clicked candidate: history, the click, K negatives.

    Negatives are drawn uniformly without replacement from the same
    impression's non-clicked candidates; if fewer than K exist they are
    drawn with replacement and a warning is issued (once).  Impressions
    with no usable history or no encodable negative yield no samples.
    """
    encodable = _encodable_ids(news_tokens, lookup, config.max_title_tokens)
    samples: list[TrainSample] = []
    warned = False
    k = config.negatives
    for log in logs:
        history = usable_history(log.history, encodable, config.max_history)
        if not history:
            continue
        positives = [nid for nid, lab in log.candidates if lab == 1 and nid in encodable]
        pool = [nid for nid, lab in log.candidates if lab == 0 and nid in encodable]
        if not positives or not pool:
            continue
        for pos in positives:
            if len(pool) >= k:
                chosen = rng.choice(len(pool), size=k, replace=False)
            else:
                if not warned:
                    warnings.warn(
                        f"impression {log.impression_id} has {len(pool)} non-clicked "
                        f"candidates, fewer than {k}; sampling negatives with replacement",
                        InsufficientNegatives,
                    )
                    warned = True
                chosen = rng.choice(len(pool), size=k, replace=True)
            samples.append(TrainSample(
                history=history,
                positive=pos,
                negatives=tuple(pool[int(c)] for c in chosen),
            ))
    return samples


def _check_finite(params: ModelParams) -> None:
    for t in params.tensors():
        if not np.isfinite(t.data).all():
            raise NonfiniteParameter(f"model parameter {t.name or '<unnamed>'} contains nan/inf")


def train_model(
    logs: Sequence[ImpressionLog],
    news_tokens: Mapping[str, Sequence[str]],
    lookup: EmbeddingLookup,
    config: ModelConfig,
    params: ModelParams | None = None,
) -> tuple[ModelParams, list[float]]:
    """Fit both encoders with Adam; returns (params, per-epoch mean loss).

    Word embeddings are inputs, not parameters: they are never updated.
    One seed drives initialization, negative sampling, and the per-epoch
    shuffle, so identical inputs give identical parameters.
    """
    config.validate()
    if params is None:
        params = init_params(lookup.dim, config)
    elif params.embed_dim != lookup.dim:
        raise ConfigError(
            f"model expects {params.embed_dim}-dim embeddings, lookup provides {lookup.dim}"
        )
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    sample_rng = np.random.default_rng(seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    samples = build_train_samples(logs, news_tokens, lookup, config, sample_rng)
    if not samples:
        raise AllDegenerate(
            "no trainable samples: every impression lacks usable history, "
            "a clicked candidate, or an encodable negative"
        )
    optimizer = Adam(params.tensors(), config.learning_rate)
    trace: list[float] = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(samples))
        epoch_losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [samples[i] for i in order[start : start + config.batch_size]]
            epoch_losses.extend(_train_batch(batch, news_tokens, lookup, params, optimizer))
        _check_finite(params)
        trace.append(math.fsum(epoch_losses) / len(epoch_losses))
    return params, trace


def _train_batch(batch: Sequence[TrainSample], news_tokens: Mapping[str, Sequence[str]],
                 lookup: EmbeddingLookup, params: ModelParams, optimizer: Adam) -> list[float]:
    """One Adam step on one batch; returns the per-sample losses.

    The batch's graph is freed on return, before the next batch builds its own.
    """
    news_cache: dict[str, ad.Tensor] = {}

    def news_vec(nid: str) -> ad.Tensor:
        vec = news_cache.get(nid)
        if vec is None:
            vec = encode_news(news_tokens[nid], lookup, params)
            news_cache[nid] = vec
        return vec

    losses = []
    for sample in batch:
        history = ad.stack([news_vec(nid) for nid in sample.history])
        user_vec = encode_user(history, params)
        cands = [news_vec(sample.positive)]
        cands.extend(news_vec(nid) for nid in sample.negatives)
        losses.append(sample_loss(user_vec, cands))
    batch_loss = ad.mean(ad.stack(losses))
    if not math.isfinite(batch_loss.item()):
        raise DivergedCost(
            f"training loss became non-finite (learning_rate={optimizer.lr})"
        )
    ad.backward(batch_loss)
    optimizer.step()
    return [l.item() for l in losses]


def news_vector(tokens: Sequence[str], lookup: EmbeddingLookup, params: ModelParams) -> np.ndarray:
    """Numeric news vector for inference paths: the training forward, no graph."""
    rows = title_embedding_rows(tokens, lookup, params.config.max_title_tokens)
    return _encode(rows, params.news, params.config.d_head)


def user_vector(
    history_vectors: Sequence[np.ndarray], params: ModelParams
) -> np.ndarray:
    """Numeric user vector from already-encoded clicked news; zero if empty."""
    if not history_vectors:
        return cold_start_user_vector(params)
    return _encode(np.stack(history_vectors), params.user, params.config.d_head)


def score_impression_logs(
    logs: Sequence[ImpressionLog],
    news_tokens: Mapping[str, Sequence[str]],
    lookup: EmbeddingLookup,
    params: ModelParams,
) -> list[ImpressionResult]:
    """Score every candidate of every impression, preserving input order.

    News vectors are cached per article.  Candidates that cannot be
    encoded (unknown id or no embeddable token) score 0.0, as does every
    candidate of a user with no usable history (cold start).
    """
    cfg = params.config
    encodable = _encodable_ids(news_tokens, lookup, cfg.max_title_tokens)
    cache: dict[str, np.ndarray] = {}

    def vec(nid: str) -> np.ndarray:
        out = cache.get(nid)
        if out is None:
            out = cache[nid] = news_vector(news_tokens[nid], lookup, params)
        return out

    results = []
    for log in logs:
        history = usable_history(log.history, encodable, cfg.max_history)
        uvec = user_vector([vec(nid) for nid in history], params)
        scores = tuple(float(uvec @ vec(nid)) if nid in encodable else 0.0
                       for nid, _ in log.candidates)
        results.append(ImpressionResult(
            impression_id=log.impression_id,
            labels=tuple(label for _, label in log.candidates),
            scores=scores,
        ))
    return results


def loss_trace_csv(trace: Sequence[float]) -> str:
    lines = ["epoch,mean_loss"]
    lines.extend(f"{n + 1},{value!r}" for n, value in enumerate(trace))
    return "\n".join(lines) + "\n"


def save_model(path: str, params: ModelParams) -> None:
    """Header (magic, length-prefixed config JSON) then tensors as
    little-endian float32: news encoder Q, K, V as (heads, 3, d_in, d_head)
    per-head blocks, then proj and query; user encoder the same.

    The per-head order is the on-disk format only; in memory each of Q, K
    and V is one (d_in, heads*d_head) tensor.
    """
    header = dict(asdict(params.config), embed_dim=params.embed_dim)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MODEL_MAGIC, struct.pack("<I", len(blob)), blob]
    for enc in (params.news, params.user):
        for arr in (_to_head_major(enc, params.config.heads), enc.proj.data, enc.query.data):
            chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    write_text_atomic(path, b"".join(chunks))


def load_model(path: str) -> ModelParams:
    """Read a ``save_model`` checkpoint; any truncated or garbled part of
    the file raises ConfigError naming ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ConfigError(f"{path} is not a model checkpoint (bad magic)")
    start = len(MODEL_MAGIC) + 4
    try:
        (json_len,) = struct.unpack_from("<I", blob, len(MODEL_MAGIC))
        raw = json.loads(blob[start : start + json_len].decode("utf-8"))
        embed_dim = int(raw["embed_dim"])
        if embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
        config = replace(ModelConfig(), **{f.name: raw[f.name] for f in fields(ModelConfig)
                                           if f.name in raw}).validate()
        shapes = _encoder_shapes(embed_dim, config) + _encoder_shapes(config.d_model, config)
    except (ConfigError, struct.error, UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path} has a truncated or garbled header: {exc}") from exc
    offset = start + json_len
    sizes = [math.prod(shape) for shape in shapes]
    if len(blob) - offset != 4 * sum(sizes):
        raise ConfigError(
            f"{path} holds {len(blob) - offset} tensor bytes where its config needs "
            f"{4 * sum(sizes)}; the checkpoint is truncated or has trailing bytes"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=offset).astype(np.float64)
    arrays = [part.reshape(shape) for part, shape
              in zip(np.split(values, np.cumsum(sizes)[:-1]), shapes)]
    return ModelParams(embed_dim=embed_dim, config=config,
                       news=_make_encoder(*arrays[:3], "news"),
                       user=_make_encoder(*arrays[3:], "user"))
