"""Recommendation lists and content-similarity queries over news vectors.

Both operations run on top of a trained model: ``recommend`` ranks a
candidate pool for one user by dot-product click score, ``similar_news``
finds the corpus items whose encoded vectors lie closest to a query
(an existing article, an exact headline, or free text).

Both, like ``evaluate``, read news vectors from a ``CorpusIndex``.
``load_or_build_index`` reads one from a ``news_index.bin`` file written by
``save_index`` for the same inputs, or builds it when there is no such
file; only a build, or a free-text query, needs the word embeddings.
Their loader takes the tokens whose rows are wanted, or None for every
row: a build asks for all of them, a free-text query only for its own.
The index holds the corpus's ``textprep.TokenizedNews`` records; only a
build reads their title tokens, so a query over a stored index splits no
token column.
"""

from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass
from typing import Callable, Collection, Sequence

import numpy as np

from .errors import ConfigError, EmptyCandidatePool, NoKnownTokens
from .glove import EmbeddingLookup
from .mind import read_checkpoint, write_checkpoint
from .model import (ModelParams, click_scores, news_vector, news_vectors, title_rows,
                    usable_history, user_vectors)
from .textprep import TokenizedNews

SNIPPET_WIDTH = 48
METRICS = ("euclidean", "cosine-distance")
INDEX_FILE = "news_index.bin"
INDEX_MAGIC = b"NRECIDX2"
# the float64 index of an earlier build: stale, never read
FLOAT64_INDEX_MAGIC = b"NRECIDX1"

# a loader of the word embeddings: the rows of the given tokens, or of all if None
Loader = Callable[[Collection[str] | None], EmbeddingLookup]


@dataclass(frozen=True, slots=True)
class RecommendationList:
    user_id: str
    entries: tuple[tuple[str, float], ...]
    generated_from: int


@dataclass(frozen=True, slots=True)
class Neighbor:
    news_id: str
    headline: str
    category: str
    snippet: str
    distance: float


@dataclass(frozen=True, slots=True)
class SimilarityResult:
    query: str
    metric: str
    neighbors: tuple[Neighbor, ...]


def abstract_snippet(text: str, width: int = SNIPPET_WIDTH) -> str:
    if len(text) <= width:
        return text
    return text[:width] + "..."


class CorpusIndex:
    """News vectors for a tokenized corpus, keyed by news id.

    Each title is resolved to its ``model.title_rows`` once.  Items with
    none are dropped: they cannot be scored.  ``items`` are the corpus
    records of the rows, whose news id, category, raw title and raw
    abstract the queries read.
    """

    def __init__(self, corpus: Sequence[TokenizedNews], lookup: EmbeddingLookup,
                 params: ModelParams):
        rows = [title_rows(item.title_tokens, lookup, params.config.max_title_tokens)
                for item in corpus]
        self.items = [item for item, r in zip(corpus, rows) if len(r)]
        self.by_id = {item.news_id: i for i, item in enumerate(self.items)}
        self.matrix = (news_vectors([r for r in rows if len(r)], lookup.matrix, params)
                       if self.items else np.empty((0, params.config.d_model), lookup.matrix.dtype))

    @classmethod
    def _of_rows(cls, items: list[TokenizedNews], matrix: np.ndarray) -> "CorpusIndex":
        """The index whose row i, ``matrix[i]``, is the vector of
        ``items[i]``, as ``save_index`` stored it."""
        index = cls.__new__(cls)
        index.items = items
        index.by_id = {item.news_id: i for i, item in enumerate(items)}
        index.matrix = matrix
        return index

    def __len__(self) -> int:
        return len(self.items)

    def vector_of(self, news_id: str) -> np.ndarray | None:
        i = self.by_id.get(news_id)
        if i is None:
            return None
        return self.matrix[i]


def save_index(path: str, index: CorpusIndex, inputs: dict[str, str]) -> None:
    """A ``mind.write_checkpoint`` file: magic ``NRECIDX2``, a header with
    the ``inputs`` digests, ``numpy.__version__`` and the news ids of the
    rows, then the ``(n, d_model)`` float32 matrix."""
    header = {"inputs": inputs, "numpy": np.__version__,
              "ids": [item.news_id for item in index.items]}
    write_checkpoint(path, INDEX_MAGIC, header, [index.matrix])


def load_or_build_index(path: str, corpus: Sequence[TokenizedNews], lookup: Loader,
                        params: ModelParams,
                        inputs: dict[str, str]) -> tuple[CorpusIndex, bytes | None]:
    """The ``save_index`` file at ``path`` as an index, and the bytes it
    was read from, if it was written for these ``inputs`` digests and this
    numpy; else a new ``CorpusIndex`` over every embedding ``lookup(None)``
    loads, and None.

    A file for other inputs or another numpy is stale and ignored, as is
    an ``NRECIDX1`` file, the float64 index of an earlier build.  A file
    with another magic, a cut or garbled header, ids that are not distinct
    corpus ids, or a payload that is not one finite ``d_model`` row per id
    raises ConfigError naming ``path``.
    """
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            blob = fh.read()
        header, values = ({}, None) if blob.startswith(FLOAT64_INDEX_MAGIC) else (
            read_checkpoint(path, INDEX_MAGIC, "a news index", blob))
        if header.get("inputs") == inputs and header.get("numpy") == np.__version__:
            ids, width = header.get("ids"), params.config.d_model
            by_id = {item.news_id: item for item in corpus}
            if (not isinstance(ids, list) or not all(isinstance(nid, str) for nid in ids)
                    or len(set(ids)) != len(ids)):
                raise ConfigError(f"{path}: header ids must be a list of distinct strings")
            if missing := [nid for nid in ids if nid not in by_id]:
                raise ConfigError(f"{path} lists news id {missing[0]!r}, which is not in the corpus")
            if values.size != len(ids) * width:
                raise ConfigError(f"{path} holds {values.size} values, "
                                  f"not {len(ids)} rows of {width}")
            if not np.isfinite(values).all():
                raise ConfigError(f"{path} holds nan or infinite values")
            # a copy: the payload may start at any byte, and numpy may take
            # other kernels over unaligned rows than over a built index's
            matrix = values.reshape(len(ids), width).copy()
            return CorpusIndex._of_rows([by_id[nid] for nid in ids], matrix), blob
    return CorpusIndex(corpus, lookup(None), params), None


def recommend(
    user_history: Sequence[str],
    candidate_pool: Sequence[str],
    index: CorpusIndex,
    params: ModelParams,
    top_n: int = 10,
    user_id: str = "",
) -> RecommendationList:
    """Top candidates for a user, scored by ``model.click_scores``, the
    click score ``evaluate`` gives.

    The user is encoded from ``model.usable_history`` of their clicks, as
    in training and ``evaluate``, by ``model.user_vectors`` over the
    index's rows; ``generated_from`` counts those clicks.  History items
    and ids not in the index are removed from the pool before ranking, and
    a pool left with nothing raises ``EmptyCandidatePool``.  A user whose
    history has no encodable item gets the cold-start zero vector (every
    score is then 0.0 and ordering falls back to news id).  Entries sort by
    descending score, ties by ascending news id.
    """
    if not candidate_pool:
        raise EmptyCandidatePool("candidate pool is empty")
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    history = usable_history(user_history, index.by_id, params.config.max_history)
    (uvec,) = user_vectors(index.matrix, [[index.by_id[nid] for nid in history]], params)
    history_set = set(user_history)
    ids, rows = [], []
    seen = set()
    clicked = unknown = 0
    for nid in candidate_pool:
        if nid in seen:
            continue
        seen.add(nid)
        if nid in history_set:
            clicked += 1
        elif (row := index.by_id.get(nid)) is None:
            unknown += 1
        else:
            ids.append(nid)
            rows.append(row)
    if not ids:
        raise EmptyCandidatePool(
            f"no candidate left to score: of {len(seen)} distinct pool ids, {unknown} are "
            f"not in the corpus index and {clicked} are in the user's history"
        )
    scores = click_scores(uvec, index.matrix[rows])
    # nsmallest(n, ...) is sorted(...)[:n], without sorting the whole pool
    scored = heapq.nsmallest(top_n, zip(ids, scores.tolist()),
                             key=lambda e: (-e[1], e[0]))
    return RecommendationList(
        user_id=user_id,
        entries=tuple(scored),
        generated_from=len(history),
    )


def _euclidean(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((matrix - q) ** 2, axis=1))


def _cosine_distance(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = np.linalg.norm(q)
    norms = np.linalg.norm(matrix, axis=1)
    denom = norms * qn
    # zero vectors are maximally dissimilar rather than undefined
    cos = np.divide(matrix @ q, denom, out=np.zeros(len(matrix)), where=denom > 0)
    return 1.0 - cos


_DISTANCE_FNS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "euclidean": _euclidean,
    "cosine-distance": _cosine_distance,
}


def _resolve_query(
    query: str,
    index: CorpusIndex,
    lookup: Loader,
    params: ModelParams,
    normalize: Callable[[str], list[str]],
) -> tuple[np.ndarray, str | None]:
    """Map a query to (vector, excluded news id).

    Resolution order: exact news id, exact raw headline (first match),
    else normalize the text like a title and encode it over the
    embeddings ``lookup`` returns for the tokens the encoder reads, the
    first ``max_title_tokens``.
    """
    vec = index.vector_of(query)
    if vec is not None:
        return vec, query
    for item in index.items:
        if item.raw_title == query:
            return index.vector_of(item.news_id), item.news_id
    tokens = normalize(query)
    if not tokens:
        raise NoKnownTokens(f"query {query!r} has no tokens after normalization")
    words = lookup(set(tokens[:params.config.max_title_tokens]))
    return news_vector(tokens, words, params), None


def similar_news(
    query: str,
    index: CorpusIndex,
    lookup: Loader,
    params: ModelParams,
    normalize: Callable[[str], list[str]],
    top_n: int = 10,
    metric: str = "euclidean",
) -> SimilarityResult:
    """Corpus items nearest to the query vector, distance ascending.

    ``lookup`` loads the word embeddings; only a free-text query, which is
    encoded, calls it, with the tokens it encodes.

    Equal distances order by ascending news id.  When the query resolves
    to a corpus item, that item is excluded from its own neighbor list.
    """
    if metric not in _DISTANCE_FNS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    if len(index) == 0:
        raise EmptyCandidatePool("similarity corpus is empty")
    qvec, exclude = _resolve_query(query, index, lookup, params, normalize)
    distances = _DISTANCE_FNS[metric](index.matrix, qvec)
    # one more than top_n, in case the excluded query item is among them
    order = heapq.nsmallest(top_n + 1, range(len(index)),
                            key=lambda i: (distances[i], index.items[i].news_id))
    neighbors = []
    for i in order:
        item = index.items[i]
        if item.news_id == exclude:
            continue
        neighbors.append(Neighbor(
            news_id=item.news_id,
            headline=item.raw_title,
            category=item.category,
            snippet=abstract_snippet(item.raw_abstract),
            distance=float(distances[i]),
        ))
        if len(neighbors) == top_n:
            break
    return SimilarityResult(query=query, metric=metric, neighbors=tuple(neighbors))


def render_similarity(result: SimilarityResult) -> str:
    """Plain-text neighbor listing: rank, headline, category, snippet, distance."""
    lines = ["===== Recommended News : =====", f"Query : {result.query}"]
    for rank, nb in enumerate(result.neighbors, start=1):
        lines.append(
            f"{rank}. {nb.headline} | {nb.category} | {nb.snippet} | {nb.distance:.6f}"
        )
    return "\n".join(lines) + "\n"


def similarity_json(result: SimilarityResult) -> str:
    payload = {
        "query": result.query,
        "metric": result.metric,
        "neighbors": [
            {
                "news_id": nb.news_id,
                "headline": nb.headline,
                "category": nb.category,
                "snippet": nb.snippet,
                "distance": round(nb.distance, 6),
            }
            for nb in result.neighbors
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_recommendations(rec: RecommendationList, index: CorpusIndex) -> str:
    lines = ["===== Recommended News : =====", f"User : {rec.user_id or '<anonymous>'}"]
    for rank, (nid, score) in enumerate(rec.entries, start=1):
        item = index.items[index.by_id[nid]]
        lines.append(
            f"{rank}. {item.raw_title} | {item.category} | "
            f"{abstract_snippet(item.raw_abstract)} | {score:.6f}"
        )
    return "\n".join(lines) + "\n"


def recommendations_json(rec: RecommendationList) -> str:
    payload = {
        "user_id": rec.user_id,
        "generated_from": rec.generated_from,
        "entries": [
            {"news_id": nid, "score": score} for nid, score in rec.entries
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
