"""Ranking metrics for impression-level evaluation.

All metrics score one impression: a list of binary click labels and a
parallel list of model scores.  ``evaluate`` macro-averages across
impressions, skipping degenerate ones (no positive or no negative), and
uses compensated summation so the averages do not drift on large runs.

Ranking convention: MRR and nDCG rank candidates by
``mind.ranks_from_scores``, the ranks ``prediction.txt`` holds: score
descending, equal scores in their original candidate order.  AUC instead
treats ties as half-wins, matching the usual pairwise definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AllDegenerate, DegenerateLabels, NoPositive, ShapeMismatch
from .mind import ranks_from_scores


@dataclass(frozen=True, slots=True)
class ImpressionResult:
    """Scored impression: labels and scores are index-aligned."""

    impression_id: str
    labels: tuple[int, ...]
    scores: tuple[float, ...]


def _check_pair(labels: Sequence[int], scores: Sequence[float]) -> None:
    if len(labels) != len(scores):
        raise ShapeMismatch(f"{len(labels)} labels vs {len(scores)} scores")
    if len(labels) == 0:
        raise ShapeMismatch("empty impression")
    for lab in labels:
        if lab not in (0, 1):
            raise DegenerateLabels(f"labels must be 0 or 1, got {lab!r}")


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Probability a random positive outscores a random negative, ties count 1/2.

    Computed from tie-averaged ranks (Mann-Whitney), which is exactly
    equivalent to averaging over all positive/negative pairs.
    """
    _check_pair(labels, scores)
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(
            f"AUC needs at least one positive and one negative, got {n_pos} pos / {n_neg} neg"
        )
    order = np.argsort(s, kind="stable")
    ranks = np.empty(y.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < y.size:
        j = i
        while j + 1 < y.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mrr(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Mean reciprocal rank over all positives in the impression."""
    _check_pair(labels, scores)
    recips = [1.0 / rank for rank, lab in zip(ranks_from_scores(scores), labels) if lab == 1]
    if not recips:
        raise NoPositive("MRR needs at least one positive label")
    return math.fsum(recips) / len(recips)


def ndcg_at(labels: Sequence[int], scores: Sequence[float], k: int) -> float:
    """Normalized discounted cumulative gain over the top k positions.

    Gain is 2^label - 1 and the discount at rank r is log2(r + 1); the
    ideal ordering puts every positive first.
    """
    _check_pair(labels, scores)
    if k < 1:
        raise ShapeMismatch(f"k must be >= 1, got {k}")
    if not any(lab == 1 for lab in labels):
        raise NoPositive("nDCG needs at least one positive label")
    depth = min(k, len(labels))
    dcg = math.fsum(
        (2.0 ** lab - 1.0) / math.log2(rank + 1.0)
        for rank, lab in zip(ranks_from_scores(scores), labels) if rank <= depth
    )
    ideal = sorted(labels, reverse=True)
    idcg = math.fsum(
        (2.0 ** ideal[r - 1] - 1.0) / math.log2(r + 1.0)
        for r in range(1, depth + 1)
    )
    return dcg / idcg


@dataclass(frozen=True, slots=True)
class MetricReport:
    auc: float
    mrr: float
    ndcg5: float
    ndcg10: float
    n_impressions: int
    n_skipped: int

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "mrr": self.mrr,
            "ndcg@5": self.ndcg5,
            "ndcg@10": self.ndcg10,
            "auc_percent": round(self.auc * 100.0, 4),
            "mrr_percent": round(self.mrr * 100.0, 4),
            "ndcg@5_percent": round(self.ndcg5 * 100.0, 4),
            "ndcg@10_percent": round(self.ndcg10 * 100.0, 4),
            "n_impressions": self.n_impressions,
            "n_skipped": self.n_skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def is_degenerate(labels: Sequence[int]) -> bool:
    return all(lab == 1 for lab in labels) or all(lab == 0 for lab in labels)


def evaluate(results: Iterable[ImpressionResult]) -> MetricReport:
    """Macro-average AUC / MRR / nDCG@5 / nDCG@10 over scorable impressions.

    Impressions whose labels are all positive or all negative carry no
    ranking signal; they are skipped and counted in ``n_skipped``.
    """
    aucs: list[float] = []
    mrrs: list[float] = []
    n5s: list[float] = []
    n10s: list[float] = []
    skipped = 0
    for res in results:
        if is_degenerate(res.labels):
            skipped += 1
            continue
        aucs.append(auc(res.labels, res.scores))
        mrrs.append(mrr(res.labels, res.scores))
        n5s.append(ndcg_at(res.labels, res.scores, 5))
        n10s.append(ndcg_at(res.labels, res.scores, 10))
    if not aucs:
        raise AllDegenerate(
            f"no scorable impressions: all {skipped} are single-class"
        )
    n = len(aucs)
    return MetricReport(
        auc=math.fsum(aucs) / n,
        mrr=math.fsum(mrrs) / n,
        ndcg5=math.fsum(n5s) / n,
        ndcg10=math.fsum(n10s) / n,
        n_impressions=n,
        n_skipped=skipped,
    )
