"""GloVe-style word embeddings trained on news text.

Pipeline: build a vocabulary over tokenized documents, count
distance-weighted co-occurrences inside a symmetric window, then fit
word/context vectors and biases by minimizing

    J = sum over stored pairs of  f(x_ij) * (w_i . wt_j + b_i + bt_j - log x_ij)^2

with per-parameter AdaGrad.  Only stored (nonzero) entries contribute.
The final vector for a word is ``w + wt``.

The corpus is held as one array of token ids plus the documents'
lengths (``TokenIds``).  The co-occurrence table is counted in blocks of
whole documents of about ``BLOCK_PAIRS`` windowed pairs each, so the
count's working memory is the table plus one block, not every pair of
the corpus at once.  Each block's distinct keys are merged into the
table's sorted keys, then its weights are added in a fixed order:
document by document, nearest distance first.  Floating-point sums
depend on their order; because the blocks follow document order too,
every entry sums the same weights in the same sequence whatever the
block size, and the table, and every file trained from it, keeps its
bytes.

The vectors are saved either as text, one ``token v1 ... vd`` line per
word as in the GloVe release, or as a self-contained binary checkpoint
that holds its token list in its header.  Training settings are not
saved with them; the run manifest records them.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

import numpy as np

from ._kernels import adagrad_sweep
from .config import GloveConfig, check
from .errors import (
    ConfigError,
    DivergedCost,
    EmptyCorpus,
    EmptyVocabulary,
    NonfiniteParameter,
)
from .mind import read_checkpoint, write_checkpoint, write_text_atomic

BINARY_MAGIC = b"NRECGLV2"


# forward pairs (p < q, q - p <= window) per block of whole documents.  A
# block's keys, weights, order and ``np.unique`` copies take about 100 B a
# pair, 13 MB at this budget.  Merging a block copies the table, so a block
# also takes up to a table's eighth as many pairs: at most about 8 entry
# copies a pair, and the count stays linear in the corpus.
BLOCK_PAIRS = 1 << 17


@dataclass(frozen=True, slots=True)
class TokenIds:
    """A corpus as token ids: ``ids`` holds every document's ids end to
    end (int64), ``lengths`` the documents' sizes, and ``tokens[i]`` is
    the token of id i."""

    tokens: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray


def encode_documents(documents: Iterable[Iterable[str]]) -> TokenIds:
    """Ids in first-seen order, read one document at a time: only the ids,
    8 bytes a token, and one dict entry per distinct token are kept."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__   # an unseen token gets the next id
    ids, lengths = array("q"), array("q")
    for doc in documents:
        before = len(ids)
        ids.extend(map(index.__getitem__, doc))
        lengths.append(len(ids) - before)
    return TokenIds(tuple(index), np.frombuffer(ids, dtype=np.int64),
                    np.frombuffer(lengths, dtype=np.int64))


def build_vocab(corpus: TokenIds, min_count: int = 1) -> tuple[str, ...]:
    """The tokens seen at least ``min_count`` times in ``corpus``, in id
    order: by descending corpus frequency, ties broken lexicographically,
    so the same corpus always yields the same ids."""
    counts = np.bincount(corpus.ids, minlength=len(corpus.tokens)).tolist()
    kept = [i for i, n in enumerate(counts) if n >= min_count]
    if not kept:
        raise EmptyVocabulary(
            f"no token reaches min_count={min_count} (corpus has {len(counts)} distinct tokens)"
        )
    kept.sort(key=lambda i: (-counts[i], corpus.tokens[i]))
    return tuple(corpus.tokens[i] for i in kept)


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


def build_cooccurrence(corpus: TokenIds, tokens: Sequence[str],
                       window: int = 5) -> CooccurrenceMatrix:
    """Count windowed co-occurrences over the documents of ``corpus``.

    ``tokens[i]`` gets id i, and tokens not in ``tokens`` are dropped
    first.  Positions p < q of one document with q - p = k <= window then
    add 1/k to (i, j) and (j, i) for distinct ids i, j, and once to (i, i)
    for equal ids.

    The documents are counted in document order, in blocks of whole
    documents of at most ``BLOCK_PAIRS`` forward pairs, or an eighth of
    the table's entries once that is more; a document with more pairs is
    a block of its own.  Each block's distinct keys i * V + j are merged
    into the table's sorted keys, then ``np.add.at`` adds its weights in
    the order document, distance, direction, position.  Each entry so
    sums its weights document by document, nearest distance first, and
    the table does not depend on the block size.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    index = {tok: i for i, tok in enumerate(tokens)}
    remap = np.array([index.get(tok, -1) for tok in corpus.tokens], dtype=np.int64)
    ids = remap[corpus.ids]
    kept = ids >= 0
    # document boundaries in the ids that remain once unknown tokens go
    bounds = np.concatenate(([0], np.cumsum(kept)))[
        np.concatenate(([0], np.cumsum(corpus.lengths)))]
    ids = ids[kept]
    del kept
    lengths = np.diff(bounds)
    reach = np.clip(np.minimum(lengths - 1, window), 0, None)
    pairs = np.concatenate(([0], np.cumsum(reach * lengths - reach * (reach + 1) // 2)))
    n = len(tokens)
    keys, vals = np.empty(0, np.int64), np.empty(0)
    start = 0
    while start < lengths.size:
        stop = _block_stop(pairs, start, keys.size)
        if pairs[stop] > pairs[start]:
            block_keys, weights = _block_pairs(ids[bounds[start]:bounds[stop]],
                                               lengths[start:stop], n, window)
            keys, vals = _add_block(keys, vals, block_keys, weights)
        start = stop
    return CooccurrenceMatrix(vocab_size=n, rows=keys // n, cols=keys % n, vals=vals)


def _block_stop(pairs: np.ndarray, start: int, table_size: int) -> int:
    """The document after the block that starts at document ``start``:
    the most whole documents whose forward pairs fit the budget, and at
    least one.  ``pairs[d]`` counts the pairs of the documents before d."""
    budget = pairs[start] + max(BLOCK_PAIRS, table_size // 8)
    return max(start + 1, int(np.searchsorted(pairs, budget, "right")) - 1)


def _block_pairs(ids: np.ndarray, lengths: np.ndarray, n: int,
                 window: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys i * n + j and 1/k weights of a block's pairs, in the order
    document, distance k, forward then reverse, position."""
    doc = np.repeat(np.arange(lengths.size), lengths)
    keys, weights, owners = [], [], []
    for k in range(1, min(window, int(lengths.max()) - 1) + 1):
        same = doc[:-k] == doc[k:]
        a, b, d = ids[:-k][same], ids[k:][same], doc[k:][same]
        off = a != b
        keys += [a * n + b, b[off] * n + a[off]]
        owners += [d, d[off]]
        weights.append(np.full(a.size + int(off.sum()), 1.0 / k))
    # a stable sort by document keeps each document's pairs nearest distance first
    order = np.argsort(np.concatenate(owners), kind="stable")
    del owners, doc   # free each list of pieces before the next full-size array
    keys = np.concatenate(keys)[order]
    return keys, np.concatenate(weights)[order]


def _add_block(keys: np.ndarray, vals: np.ndarray, block_keys: np.ndarray,
               weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge ``block_keys`` into the sorted table ``keys`` (new entries
    start at 0.0), then add ``weights`` to their entries in order."""
    uniq, inverse = np.unique(block_keys, return_inverse=True)
    at = np.searchsorted(keys, uniq)
    new = at == keys.size
    new[~new] = keys[at[~new]] != uniq[~new]
    if new.any():
        keys = np.insert(keys, at[new], uniq[new])
        vals = np.insert(vals, at[new], 0.0)
        at += np.cumsum(new) - new   # each key moves past the new keys below it
    np.add.at(vals, at[inverse], weights)
    return keys, vals


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
    check(config)
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


def load_embeddings_text(path: str, only: Collection[str] | None = None) -> EmbeddingLookup:
    """Read a ``save_embeddings_text`` file; a leading byte-order mark is ignored.

    With ``only``, a line whose token is not in it is skipped before its
    numbers are split, and the lookup holds the rows that are left, which
    may be none."""
    tokens: list[str] = []
    blocks: list[np.ndarray] = []
    fields: list[list[str]] = []
    linenos: list[int] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line or only is not None and line.partition(" ")[0] not in only:
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
        if only is not None:
            return EmbeddingLookup.from_rows((), np.empty((0, 0)), path)
        raise EmptyVocabulary(f"embedding file {path} has no rows")
    widths = sorted({block.shape[1] for block in blocks})
    if widths == [0]:
        raise ConfigError(f"embedding file {path} has tokens but no vector components")
    if len(widths) != 1:
        raise ConfigError(f"embedding file {path} has inconsistent row widths {widths}")
    return EmbeddingLookup.from_rows(tokens, np.vstack(blocks), path)


@np.errstate(over="ignore")
def _parse_components(path: str, fields: list[list[str]], linenos: list[int]) -> list[np.ndarray]:
    """Float32 blocks of the number strings in ``fields``: one block when
    they convert in one call, else one block per line, so that a bad
    component is named by its line and ragged rows reach the width check.
    A component beyond float32's range becomes inf without numpy's
    overflow warning: ``EmbeddingLookup.from_rows`` names its token."""
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


def load_embeddings_binary(path: str, only: Collection[str] | None = None) -> EmbeddingLookup:
    """Read a ``save_embeddings_binary`` file; a garbled header or a
    payload that is not its rows raises ConfigError naming ``path``.  With
    ``only``, the lookup holds only the rows of the tokens in it."""
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
    matrix = values.reshape(len(tokens), dim)
    if only is not None:
        rows = [i for i, tok in enumerate(tokens) if tok in only]
        tokens, matrix = [tokens[i] for i in rows], matrix[rows]
    return EmbeddingLookup.from_rows(tokens, matrix, path)


def load_embeddings(path: str, only: Collection[str] | None = None) -> EmbeddingLookup:
    """Load either format: a file that starts with ``NRECGLV`` is binary,
    so an older ``NRECGLV1`` file gets the bad-magic error.

    With ``only``, the lookup holds just the rows of those tokens that the
    file has, which may be none.  The rows it reads get every check a
    whole load gives a row (numbers, one width, finite, not repeated);
    the rows it skips get none, so a caller passes ``only`` for a file it
    has loaded whole before, as identified by its digest."""
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    if head.startswith(BINARY_MAGIC[:-1]):
        return load_embeddings_binary(path, only)
    return load_embeddings_text(path, only)
