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

Ids, keys, rows, columns and the visit order are int32 wherever the
vocabulary and the table allow it.  The table holds 16 B an entry
(int32 row and column, float64 count), and training adds 4 B an entry
for the visit order: the sweep derives each entry's weight f(x) and
log x block by block from the counts.

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
# block's pairs, about two for each forward pair, each an int32 key and group
# (its pieces, then joined, then one int64 sort code), take about 45 B a
# forward pair, under 6 MB at this budget.  Merging a block copies the
# table's keys and values, one array at a time, so a block also takes up to
# a table's eighth as many pairs: at most about 8 entry copies a pair, and
# the count stays linear in the corpus.
BLOCK_PAIRS = 1 << 17
_CODE_BITS = 63   # a block's pairs sort as one int64 code where key and group fit


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
    holds the accumulated distance weights.  ``build_cooccurrence`` gives
    int32 rows and columns (int64 only past 2**31 tokens).
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
    a block of its own.  Each block's pairs are sorted by key i * V + j,
    then by (document, distance); the distinct keys are merged into the
    table's sorted keys, and ``np.add.at`` adds the weights in that order.
    Each entry so sums its weights document by document, nearest distance
    first, and the table does not depend on the block size.  Keys are
    int32 up to V = 46,340 and int64 beyond.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    n = len(tokens)
    key = _index_type(n * n)   # keys i * n + j, and the ids they are made of
    index = {tok: i for i, tok in enumerate(tokens)}
    remap = np.array([index.get(tok, -1) for tok in corpus.tokens], dtype=key)
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
    table = [np.empty(0, key), np.empty(0)]   # sorted keys and their values
    start = 0
    while start < lengths.size:
        stop = _block_stop(pairs, start, table[0].size)
        if pairs[stop] > pairs[start]:
            _add_block(table, *_block_pairs(ids[bounds[start]:bounds[stop]],
                                            lengths[start:stop], n, window))
        start = stop
    keys, vals = table
    coord = _index_type(n)
    rows = (keys // n).astype(coord, copy=False)
    cols = np.remainder(keys, n, out=keys).astype(coord, copy=False)
    return CooccurrenceMatrix(vocab_size=n, rows=rows, cols=cols, vals=vals)


def _index_type(count: int) -> type:
    """int32 for the integers below ``count`` where they fit, else int64."""
    return np.int32 if count <= 1 << 31 else np.int64


def _block_stop(pairs: np.ndarray, start: int, table_size: int) -> int:
    """The document after the block that starts at document ``start``:
    the most whole documents whose forward pairs fit the budget, and at
    least one.  ``pairs[d]`` counts the pairs of the documents before d."""
    budget = pairs[start] + max(BLOCK_PAIRS, table_size // 8)
    return max(start + 1, int(np.searchsorted(pairs, budget, "right")) - 1)


def _block_pairs(ids: np.ndarray, lengths: np.ndarray, n: int,
                 window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's pairs sorted by key i * n + j, then group, as their keys
    and groups, and each group's weight.

    Each (document, distance k) of the block is a group, numbered document
    by document, nearest distance first, and each of its pairs weighs 1/k,
    so each key's weights come in the order document, distance.  Key and
    group are packed into one int64 for the sort where both fit in
    ``_CODE_BITS``, else sorted by ``np.lexsort``."""
    reach = np.clip(np.minimum(lengths - 1, window), 0, None)   # groups per document
    first = np.cumsum(reach) - reach                            # each document's first group
    count = int(first[-1] + reach[-1])
    doc = np.repeat(np.arange(lengths.size, dtype=_index_type(lengths.size)), lengths)
    base = np.repeat((first - 1).astype(_index_type(count)), lengths)  # + k: group at k
    keys, groups = [], []
    for k in range(1, int(reach.max()) + 1):
        same = doc[:-k] == doc[k:]
        a, b, g = ids[:-k][same], ids[k:][same], base[:-k][same] + k
        off = a != b
        keys += [a * n + b, b[off] * n + a[off]]
        groups += [g, g[off]]
    del doc, base   # free the per-token arrays before the pieces are joined
    keys, groups = np.concatenate(keys), np.concatenate(groups)
    weights = 1.0 / (np.arange(1, count + 1) - np.repeat(first, reach))
    shift = (count - 1).bit_length()
    if (n * n - 1).bit_length() + shift > _CODE_BITS:
        order = np.lexsort((groups, keys))
        return keys[order], groups[order], weights
    codes = keys.astype(np.int64) << shift
    codes |= groups
    codes.sort()   # equal codes are pairs of one group: one key, one weight
    np.right_shift(codes, shift, out=keys, casting="unsafe")
    np.bitwise_and(codes, (1 << shift) - 1, out=groups, casting="unsafe")
    return keys, groups, weights


def _add_block(table: list[np.ndarray], block_keys: np.ndarray, groups: np.ndarray,
               weights: np.ndarray) -> None:
    """Merge the sorted ``block_keys`` into ``table``, the sorted keys and
    their values, replacing its two arrays one at a time so that each old
    one is freed once copied (new entries start at 0.0); then add
    ``weights[groups]`` to the pairs' entries in order."""
    starts = np.flatnonzero(np.r_[True, block_keys[1:] != block_keys[:-1]])
    uniq = block_keys[starts]
    at = np.searchsorted(table[0], uniq)
    new = at == table[0].size
    new[~new] = table[0][at[~new]] != uniq[~new]
    if new.any():
        table[0] = np.insert(table[0], at[new], uniq[new])
        table[1] = np.insert(table[1], at[new], 0.0)
        at += np.cumsum(new) - new   # each key moves past the new keys below it
    del uniq, new
    at = np.repeat(at, np.diff(starts, append=block_keys.size))
    np.add.at(table[1], at, weights[groups])


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


def glove_train(
    matrix: CooccurrenceMatrix, config: GloveConfig
) -> tuple[EmbeddingTable, list[float]]:
    """Fit embeddings with per-entry AdaGrad; returns (table, per-epoch costs).

    Each epoch visits every stored entry once in a seeded shuffled order:
    an int32 range shuffled in place, which gives ``rng.permutation``'s
    order and leaves the generator in its state.
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
    trace: list[float] = []
    for epoch in range(config.epochs):
        # rng.permutation(nnz)'s permutation and generator state, at 4 B an entry
        order = np.arange(matrix.nnz, dtype=_index_type(matrix.nnz))
        rng.shuffle(order)
        cost = adagrad_sweep(order, matrix.rows, matrix.cols, matrix.vals, config.x_max,
                             config.alpha, table.params, table.acc, config.learning_rate)
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
        """Rows of ``matrix`` as float32, keyed by ``tokens``: a file's rows
        as they are, trained vectors cast.  ``source`` names the file in the
        error raised for a mismatched shape, a repeated token or a nan/inf
        component."""
        matrix = np.asarray(matrix, dtype=np.float32)
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
    step = max(1, _FORMAT_BLOCK_VALUES // (lookup.dim or 1))
    for start in range(0, len(lookup), step):
        block = lookup.matrix[start : start + step]
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
