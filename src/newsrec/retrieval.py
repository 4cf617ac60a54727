"""Recommendation lists and content-similarity queries over news vectors.

Both operations run on top of a trained model: ``recommend`` ranks a
candidate pool for one user by dot-product click score, ``similar_news``
finds the corpus items whose encoded vectors lie closest to a query
(an existing article, an exact headline, or free text).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EmptyCandidatePool, NoKnownTokens
from .glove import EmbeddingLookup
from .model import (ModelParams, news_vector, news_vectors, score_click, title_rows,
                    usable_history, user_vectors)
from .textprep import TokenizedNews

SNIPPET_WIDTH = 48
METRICS = ("euclidean", "cosine-distance")


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
    none are dropped (they cannot be scored); ``skipped`` lists their ids.
    """

    def __init__(self, corpus: Sequence[TokenizedNews], lookup: EmbeddingLookup, params: ModelParams):
        rows = [title_rows(item.title_tokens, lookup, params.config.max_title_tokens)
                for item in corpus]
        self.items = [item for item, r in zip(corpus, rows) if len(r)]
        self.by_id = {item.news_id: i for i, item in enumerate(self.items)}
        self.skipped = tuple(item.news_id for item, r in zip(corpus, rows) if not len(r))
        self.matrix = (news_vectors([r for r in rows if len(r)], lookup.matrix, params)
                       if self.items else np.empty((0, params.config.d_model)))

    def __len__(self) -> int:
        return len(self.items)

    def vector_of(self, news_id: str) -> np.ndarray | None:
        i = self.by_id.get(news_id)
        if i is None:
            return None
        return self.matrix[i]


def recommend(
    user_history: Sequence[str],
    candidate_pool: Sequence[str],
    index: CorpusIndex,
    params: ModelParams,
    top_n: int = 10,
    user_id: str = "",
) -> RecommendationList:
    """Top candidates for a user, scored by dot product with their vector.

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
    scored = []
    seen = set()
    clicked = unknown = 0
    for nid in candidate_pool:
        if nid in seen:
            continue
        seen.add(nid)
        if nid in history_set:
            clicked += 1
        elif (vec := index.vector_of(nid)) is None:
            unknown += 1
        else:
            scored.append((nid, score_click(uvec, vec)))
    if not scored:
        raise EmptyCandidatePool(
            f"no candidate left to score: of {len(seen)} distinct pool ids, {unknown} are "
            f"not in the corpus index and {clicked} are in the user's history"
        )
    scored.sort(key=lambda e: (-e[1], e[0]))
    return RecommendationList(
        user_id=user_id,
        entries=tuple(scored[:top_n]),
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
    lookup: EmbeddingLookup,
    params: ModelParams,
    normalize: Callable[[str], list[str]],
) -> tuple[np.ndarray, str | None]:
    """Map a query to (vector, excluded news id).

    Resolution order: exact news id, exact raw headline (first match),
    else normalize the text like a title and encode it.
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
    return news_vector(tokens, lookup, params), None


def similar_news(
    query: str,
    index: CorpusIndex,
    lookup: EmbeddingLookup,
    params: ModelParams,
    normalize: Callable[[str], list[str]],
    top_n: int = 10,
    metric: str = "euclidean",
) -> SimilarityResult:
    """Corpus items nearest to the query vector, distance ascending.

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
    order = sorted(range(len(index)), key=lambda i: (distances[i], index.items[i].news_id))
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
