"""GloVe-style word embeddings trained on news text.

Pipeline: build a vocabulary over tokenized documents, count
distance-weighted co-occurrences inside a symmetric window, then fit
word/context vectors and biases by minimizing

    J = sum over stored pairs of  f(x_ij) * (w_i . wt_j + b_i + bt_j - log x_ij)^2

with per-parameter AdaGrad.  Only stored (nonzero) entries contribute.
The final vector for a word is ``w + wt``.

The co-occurrence table is counted in one pass over the whole corpus,
but each entry adds its 1/distance weights in a fixed order: document
by document, nearest distance first.  Floating-point sums depend on
their order, so this order is what keeps the table, and every file
trained from it, the same bytes however the pairs are gathered.

The vectors are saved either as text, one ``token v1 ... vd`` line per
word as in the GloVe release, or as a self-contained binary checkpoint
that holds its token list in its header.  Training settings are not
saved with them; the run manifest records them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ._kernels import adagrad_sweep
from .errors import (
    ConfigError,
    DivergedCost,
    EmptyCorpus,
    EmptyVocabulary,
    NonfiniteParameter,
    check_field_types,
)
from .mind import read_checkpoint, write_checkpoint, write_text_atomic

BINARY_MAGIC = b"NRECGLV2"


@dataclass(frozen=True, slots=True)
class Vocabulary:
    """Token inventory with stable integer ids.

    Ids are assigned by descending corpus frequency, ties broken
    lexicographically, so the same corpus always yields the same mapping.
    """

    tokens: tuple[str, ...]
    index: dict[str, int] = field(compare=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def build_vocab(documents: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    counts: dict[str, int] = {}
    for doc in documents:
        for tok in doc:
            counts[tok] = counts.get(tok, 0) + 1
    kept = [(tok, n) for tok, n in counts.items() if n >= min_count]
    if not kept:
        raise EmptyVocabulary(
            f"no token reaches min_count={min_count} (corpus has {len(counts)} distinct tokens)"
        )
    kept.sort(key=lambda item: (-item[1], item[0]))
    tokens = tuple(tok for tok, _ in kept)
    return Vocabulary(tokens=tokens, index={tok: i for i, tok in enumerate(tokens)})


@dataclass(frozen=True, slots=True)
class CooccurrenceMatrix:
    """Sparse symmetric co-occurrence counts in coordinate form.

    Entries are sorted by (row, col) and strictly deduplicated; ``vals``
    holds the accumulated distance weights.
    """

    vocab_size: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.size)


def build_cooccurrence(
    documents: Sequence[Sequence[str]],
    vocab: Vocabulary,
    window: int = 5,
) -> CooccurrenceMatrix:
    """Count windowed co-occurrences over tokenized documents.

    Out-of-vocabulary tokens are dropped first.  Positions p < q of one
    document with q - p = k <= window then add 1/k to (i, j) and (j, i)
    for distinct ids i, j, and once to (i, i) for equal ids.  Each entry
    sums its weights document by document, nearest distance first, so
    the table does not depend on how the pairs are gathered.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    index = vocab.index
    encoded = [[index[tok] for tok in doc if tok in index] for doc in documents]
    lengths = [len(ids) for ids in encoded]
    ids = np.fromiter(chain.from_iterable(encoded), dtype=np.int64, count=sum(lengths))
    doc = np.repeat(np.arange(len(lengths)), lengths)
    n = len(vocab)
    keys, weights, owners = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.int64)]
    for k in range(1, min(window, max(lengths, default=0) - 1) + 1):
        same = doc[:-k] == doc[k:]
        a, b, d = ids[:-k][same], ids[k:][same], doc[k:][same]
        off = a != b
        keys += [a * n + b, b[off] * n + a[off]]
        owners += [d, d[off]]
        weights.append(np.full(a.size + int(off.sum()), 1.0 / k))
    # a stable sort by document keeps each document's pairs nearest distance first
    order = np.argsort(np.concatenate(owners), kind="stable")
    uniq, inverse = np.unique(np.concatenate(keys)[order], return_inverse=True)
    vals = np.zeros(uniq.size)
    np.add.at(vals, inverse, np.concatenate(weights)[order])
    return CooccurrenceMatrix(vocab_size=n, rows=uniq // n, cols=uniq % n, vals=vals)


@dataclass(frozen=True, slots=True)
class GloveConfig:
    dim: int = 50
    window: int = 5
    x_max: float = 100.0
    alpha: float = 0.75
    learning_rate: float = 0.05
    epochs: int = 25
    min_count: int = 5
    seed: int = 1

    def validate(self) -> "GloveConfig":
        check_field_types(self)
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.x_max <= 0:
            raise ConfigError(f"x_max must be > 0, got {self.x_max}")
        if not 0 < self.alpha <= 1:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


@dataclass(slots=True)
class EmbeddingTable:
    """Trainable GloVe state in the reference implementation's layout:
    ``params`` holds ``[W | b]`` over ``[Wt | bt]``, shape (2V, d+1), and
    ``acc`` their AdaGrad sums in the same layout.  ``W``, ``Wt``, ``b``
    and ``bt`` are read/write views of ``params``."""

    params: np.ndarray
    acc: np.ndarray

    @property
    def vocab_size(self) -> int:
        return self.params.shape[0] // 2

    @property
    def dim(self) -> int:
        return self.params.shape[1] - 1

    @property
    def W(self) -> np.ndarray:
        return self.params[:self.vocab_size, :-1]

    @property
    def Wt(self) -> np.ndarray:
        return self.params[self.vocab_size:, :-1]

    @property
    def b(self) -> np.ndarray:
        return self.params[:self.vocab_size, -1]

    @property
    def bt(self) -> np.ndarray:
        return self.params[self.vocab_size:, -1]

    def word_vectors(self) -> np.ndarray:
        return self.W + self.Wt

    def check_finite(self) -> None:
        for name in ("W", "Wt", "b", "bt"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise NonfiniteParameter(f"embedding parameter {name} contains nan/inf")


def init_table(vocab_size: int, dim: int, seed: int) -> EmbeddingTable:
    """Uniform(-0.5/dim, 0.5/dim) init for vectors and biases, unit AdaGrad sums.

    Draw order is fixed (W, Wt, b, bt) so a seed fully determines the state.
    A ``dim`` too large for numpy to allocate raises ConfigError.
    """
    rng = np.random.default_rng(seed)
    lim = 0.5 / dim
    try:
        table = EmbeddingTable(params=np.empty((2 * vocab_size, dim + 1)),
                               acc=np.ones((2 * vocab_size, dim + 1)))
        for part in (table.W, table.Wt, table.b, table.bt):
            part[:] = rng.uniform(-lim, lim, size=part.shape)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"dim={dim} for {vocab_size} tokens sizes a table numpy "
                          f"cannot allocate: {exc}") from exc
    return table


def cost_weight(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    """f(x) = (x / x_max)^alpha for x < x_max, else 1."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < x_max, (x / x_max) ** alpha, 1.0)


def _weighted_residuals(
    table: EmbeddingTable, matrix: CooccurrenceMatrix, config: GloveConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per stored entry: the weight f(x_ij) and the residual
    w_i . wt_j + b_i + bt_j - log x_ij."""
    i = matrix.rows
    j = matrix.cols
    diff = (
        np.einsum("nd,nd->n", table.W[i], table.Wt[j])
        + table.b[i]
        + table.bt[j]
        - np.log(matrix.vals)
    )
    return cost_weight(matrix.vals, config.x_max, config.alpha), diff


def glove_cost(table: EmbeddingTable, matrix: CooccurrenceMatrix, config: GloveConfig) -> float:
    table.check_finite()
    if matrix.nnz == 0:
        return 0.0
    fw, diff = _weighted_residuals(table, matrix, config)
    return float(np.sum(fw * diff * diff))


def glove_cost_grads(
    table: EmbeddingTable, matrix: CooccurrenceMatrix, config: GloveConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Cost plus analytic gradients for every parameter array."""
    table.check_finite()
    grads = {
        "W": np.zeros_like(table.W),
        "Wt": np.zeros_like(table.Wt),
        "b": np.zeros_like(table.b),
        "bt": np.zeros_like(table.bt),
    }
    if matrix.nnz == 0:
        return 0.0, grads
    i = matrix.rows
    j = matrix.cols
    fw, diff = _weighted_residuals(table, matrix, config)
    cost = float(np.sum(fw * diff * diff))
    g = 2.0 * fw * diff
    np.add.at(grads["W"], i, g[:, None] * table.Wt[j])
    np.add.at(grads["Wt"], j, g[:, None] * table.W[i])
    np.add.at(grads["b"], i, g)
    np.add.at(grads["bt"], j, g)
    return cost, grads


def glove_train(
    matrix: CooccurrenceMatrix, config: GloveConfig
) -> tuple[EmbeddingTable, list[float]]:
    """Fit embeddings with per-entry AdaGrad; returns (table, per-epoch costs).

    Each epoch visits every stored entry once in a seeded shuffled order.
    The reported cost per epoch sums the weighted squared residuals as seen
    just before each update.  A non-finite cost aborts training.  Zero
    epochs return the seeded initialization, even for a matrix with no
    entries.
    """
    config.validate()
    table = init_table(matrix.vocab_size, config.dim, config.seed)
    if config.epochs == 0:
        return table, []
    if matrix.nnz == 0:
        raise EmptyCorpus("cannot train embeddings: co-occurrence matrix has no entries")
    rng = np.random.default_rng(config.seed)
    fweight = cost_weight(matrix.vals, config.x_max, config.alpha)
    logx = np.log(matrix.vals)
    trace: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(matrix.nnz)
        cost = adagrad_sweep(order, matrix.rows, matrix.cols, fweight, logx,
                             table.params, table.acc, config.learning_rate)
        if not math.isfinite(cost):
            raise DivergedCost(
                f"training cost became non-finite at epoch {epoch + 1} "
                f"(learning_rate={config.learning_rate})"
            )
        trace.append(float(cost))
    table.check_finite()
    return table, trace


@dataclass(frozen=True, slots=True)
class EmbeddingLookup:
    """Immutable token -> vector map used by the encoders and retrieval."""

    tokens: tuple[str, ...]
    matrix: np.ndarray
    index: dict[str, int] = field(compare=False)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @classmethod
    def from_table(cls, vocab: Vocabulary, table: EmbeddingTable) -> "EmbeddingLookup":
        if len(vocab) != table.vocab_size:
            raise ConfigError(
                f"vocabulary size {len(vocab)} does not match table size {table.vocab_size}"
            )
        return cls(tokens=vocab.tokens, matrix=table.word_vectors(), index=vocab.index)

    @classmethod
    def from_rows(cls, tokens: Sequence[str], matrix: np.ndarray,
                  source: str = "embedding matrix") -> "EmbeddingLookup":
        """Rows of ``matrix`` keyed by ``tokens``; ``source`` names the file
        in the error raised for a mismatched shape, a repeated token or a
        nan/inf component."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ConfigError(
                f"{source}: shape {matrix.shape} does not match {len(tokens)} tokens"
            )
        index: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok in index:
                raise ConfigError(f"{source}: token {tok!r} occurs more than once")
            index[tok] = i
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            tok = tokens[int(np.argmin(finite))]
            raise ConfigError(f"{source}: token {tok!r} has a nan or infinite component")
        return cls(tokens=tuple(tokens), matrix=matrix, index=index)


def _format_value(v: float) -> str:
    return np.format_float_positional(np.float32(v), unique=True, trim="0")


# components per vectorized str cast, in whole rows; at the <U32 width numpy
# gives float32 strings, the block's string array stays near 512 KiB
_FORMAT_BLOCK_VALUES = 4096


def save_embeddings_text(path: str, lookup: EmbeddingLookup) -> None:
    """One line per token: token then float32-precision components.

    Each component is the shortest decimal that round-trips its float32,
    written positionally with trailing zeros trimmed to one digit after
    the point, exactly as ``_format_value`` writes it.  numpy's vectorised
    ``str`` cast formats blocks of about ``_FORMAT_BLOCK_VALUES``
    components; only those it writes in scientific notation (an ``e`` in
    the string) take the per-value path through ``_format_value``.
    """
    lines = []
    m32 = lookup.matrix.astype(np.float32)
    step = max(1, _FORMAT_BLOCK_VALUES // (m32.shape[1] or 1))
    for start in range(0, len(m32), step):
        block = m32[start : start + step]
        text = block.astype(str)
        # find the "e"s in the strings' UCS-4 code points (numpy.char's
        # search would import modules that stay resident)
        codes = text.view(np.uint32).reshape(*text.shape, text.dtype.itemsize // 4)
        rows = text.tolist()
        for r, c in zip(*np.nonzero((codes == ord("e")).any(axis=-1))):
            rows[r][c] = _format_value(block[r, c])
        tokens = lookup.tokens[start : start + step]
        lines.extend(tok + " " + " ".join(row) for tok, row in zip(tokens, rows))
    write_text_atomic(path, "\n".join(lines) + "\n")


_TEXT_CHUNK_LINES = 256  # lines converted per vectorized parse; bounds the strings held


def load_embeddings_text(path: str) -> EmbeddingLookup:
    tokens: list[str] = []
    blocks: list[np.ndarray] = []
    fields: list[list[str]] = []
    linenos: list[int] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                tokens.append(parts[0])
                fields.append(parts[1:])
                linenos.append(lineno)
                if len(fields) == _TEXT_CHUNK_LINES:
                    blocks.extend(_parse_components(path, fields, linenos))
                    fields, linenos = [], []
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc}") from exc
    if fields:
        blocks.extend(_parse_components(path, fields, linenos))
    if not tokens:
        raise EmptyVocabulary(f"embedding file {path} has no rows")
    widths = sorted({block.shape[1] for block in blocks})
    if widths == [0]:
        raise ConfigError(f"embedding file {path} has tokens but no vector components")
    if len(widths) != 1:
        raise ConfigError(f"embedding file {path} has inconsistent row widths {widths}")
    return EmbeddingLookup.from_rows(tokens, np.vstack(blocks), path)


def _parse_components(path: str, fields: list[list[str]], linenos: list[int]) -> list[np.ndarray]:
    """Float32 blocks of the number strings in ``fields``: one block when
    they convert in one call, else one block per line, so that a bad
    component is named by its line and ragged rows reach the width check."""
    try:
        return [np.array(fields, dtype=np.float32)]
    except ValueError:
        pass
    blocks = []
    for lineno, parts in zip(linenos, fields):
        try:
            blocks.append(np.array([[np.float32(p) for p in parts]], dtype=np.float32))
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: embedding component is not a number: {exc}") from exc
    return blocks


def save_embeddings_binary(path: str, lookup: EmbeddingLookup) -> None:
    """A ``mind.write_checkpoint`` file: magic ``NRECGLV2``, the header
    ``{"dim": d, "tokens": [...]}``, then the rows as float32."""
    write_checkpoint(path, BINARY_MAGIC, {"dim": lookup.dim, "tokens": list(lookup.tokens)},
                     [lookup.matrix])


def load_embeddings_binary(path: str) -> EmbeddingLookup:
    """Read a ``save_embeddings_binary`` file; a garbled header or a
    payload that is not its rows raises ConfigError naming ``path``."""
    header, values = read_checkpoint(path, BINARY_MAGIC, "an embedding checkpoint")
    tokens, dim = header.get("tokens"), header.get("dim")
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise ConfigError(f"{path}: header tokens must be a list of strings")
    if not tokens:
        raise EmptyVocabulary(f"embedding file {path} has no rows")
    if type(dim) is not int or dim < 1:
        raise ConfigError(f"{path}: header dim must be an integer >= 1, got {dim!r}")
    if values.size != len(tokens) * dim:
        raise ConfigError(f"{path} holds {values.size} values, not {len(tokens)} rows of {dim}")
    return EmbeddingLookup.from_rows(tokens, values.reshape(len(tokens), dim), path)


def load_embeddings(path: str) -> EmbeddingLookup:
    """Load either format: a file that starts with ``NRECGLV`` is binary,
    so an older ``NRECGLV1`` file gets the bad-magic error."""
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    if head.startswith(BINARY_MAGIC[:-1]):
        return load_embeddings_binary(path)
    return load_embeddings_text(path)
