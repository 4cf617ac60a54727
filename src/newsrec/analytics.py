"""Plot-ready corpus summaries: category mix, word frequencies, title lengths.

Everything here is exact counting over a tokenized corpus, emitted as CSV
tables plus one JSON bundle.  Outputs are deterministic and independent of
corpus order.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyCorpus, UnknownCategory
from .textprep import TokenizedNews


@dataclass(frozen=True, slots=True)
class CategoryDistribution:
    rows: tuple[tuple[str, str, int], ...]

    @property
    def total(self) -> int:
        return sum(count for _, _, count in self.rows)


@dataclass(frozen=True, slots=True)
class WordFrequencyTable:
    category: str
    rows: tuple[tuple[str, int], ...]


@dataclass(frozen=True, slots=True)
class TitleLengthHistogram:
    counts: dict[int, int]
    use_raw_titles: bool

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def mean(self) -> float:
        n = self.total
        return sum(length * count for length, count in self.counts.items()) / n


def category_distribution(corpus: Sequence[TokenizedNews]) -> CategoryDistribution:
    """News counts per (category, subcategory), largest group first."""
    if not corpus:
        raise EmptyCorpus("cannot summarize an empty corpus")
    counts = Counter((item.category, item.subcategory) for item in corpus)
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return CategoryDistribution(
        rows=tuple((cat, sub, n) for (cat, sub), n in rows)
    )


def word_frequencies(corpus: Sequence[TokenizedNews], category: str, top_k: int = 100) -> WordFrequencyTable:
    """Most frequent title+abstract tokens within one category.

    Rows sort by descending count, ties lexicographically; at most
    ``top_k`` rows are kept.
    """
    if not corpus:
        raise EmptyCorpus("cannot summarize an empty corpus")
    present = {item.category for item in corpus}
    if category not in present:
        raise UnknownCategory(
            f"category {category!r} not in corpus (has: {', '.join(sorted(present))})"
        )
    counts: Counter[str] = Counter()
    for item in corpus:
        if item.category == category:
            counts.update(item.title_tokens)
            counts.update(item.abstract_tokens)
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return WordFrequencyTable(category=category, rows=tuple(rows))


def title_length_histogram(corpus: Sequence[TokenizedNews], use_raw_titles: bool = True) -> TitleLengthHistogram:
    """Title length distribution, in whitespace tokens of the raw title or
    in post-normalization tokens."""
    if not corpus:
        raise EmptyCorpus("cannot summarize an empty corpus")
    counts: Counter[int] = Counter()
    for item in corpus:
        if use_raw_titles:
            counts[len(item.raw_title.split())] += 1
        else:
            counts[len(item.title_tokens)] += 1
    return TitleLengthHistogram(counts=dict(counts), use_raw_titles=use_raw_titles)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with newline line ends; a field holding a comma or a quote is
    quoted, so a token such as ``1,000`` stays one field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def categories_csv(dist: CategoryDistribution) -> str:
    return _csv(("category", "subcategory", "count"), dist.rows)


def wordfreq_csv(table: WordFrequencyTable) -> str:
    return _csv(("token", "count"), table.rows)


def title_hist_csv(hist: TitleLengthHistogram) -> str:
    return _csv(("length", "count"), sorted(hist.counts.items()))


def analytics_json(
    dist: CategoryDistribution,
    tables: Sequence[WordFrequencyTable],
    hist: TitleLengthHistogram,
) -> str:
    payload = {
        "categories": [
            {"category": cat, "subcategory": sub, "count": n} for cat, sub, n in dist.rows
        ],
        "word_frequencies": {
            table.category: [{"token": tok, "count": n} for tok, n in table.rows]
            for table in tables
        },
        "title_histogram": {
            "use_raw_titles": hist.use_raw_titles,
            "counts": {str(length): hist.counts[length] for length in sorted(hist.counts)},
            "mean": hist.mean(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
