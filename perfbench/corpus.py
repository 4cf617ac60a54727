"""Seeded MIND-format inputs for the benchmark workloads.

Like ``newsrec.synth``, every category owns a disjoint pseudo-word
inventory and every user clicks one category, so a working model ranks
the clicked candidate first.  Unlike it, lengths are ragged and words
carry English suffixes so the stemmer has real work.  The program only
ever sees the files written here.

Where the lengths come from.  MIND (Wu et al., ACL 2020, Table 1)
publishes mean lengths: 11.52 words per title and 43.00 per abstract.
The title and abstract draws below are set so their means match those;
their lognormal shape and spread are assumptions.  The rest is assumed,
not measured from MIND, and ``perfbench/README.md`` says so too:

- click histories: lognormal with median 15 and sigma 0.9, clipped to
  1..50, so about one history in ten reaches the model's default
  ``max_history`` of 50 and gets truncated;
- candidates per impression: one click plus 4 to 9 non-clicks, so each
  impression has at least the model's default 4 negatives;
- a quarter of the words of a text are stopwords.

The benchmark records the measured shares (title and history lengths,
the share of histories at ``max_history``, candidates per impression)
with each result, so a claim can cite what the inputs really held.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from newsrec.mind import ImpressionLog, NewsArticle, format_behavior_line, format_news_line

# disjoint consonant inventories keep stems of different categories apart
# (a stem keeps the first letter of its word)
_CONSONANTS = ("bdg", "klm", "prv", "tzw", "fjq")
_CATEGORIES = ("health", "sports", "finance", "travel", "movies")
_VOWELS = "aeiou"
_SUFFIXES = ("", "", "", "s", "ing", "ed", "ation", "ness", "ful", "ly", "ment", "ize", "er")
_STOPWORDS = ("the", "to", "of", "a", "in", "for", "and", "on", "with", "is")
_NORMAL = NormalDist()
# lognormal median, sigma, then clipped to [min, max]; a median m with sigma s
# has mean m * exp(s * s / 2), which for the texts is MIND's published mean
TITLE_WORDS = (10.6, 0.4, 4, 30)  # mean 11.5 words (MIND: 11.52)
ABSTRACT_WORDS = (41.1, 0.3, 8, 120)  # mean 43 words (MIND: 43.00)
HISTORY_CLICKS = (15.0, 0.9, 1, 50)  # assumed; 50 is the model's default max_history
NEGATIVES = (4, 9)  # assumed; non-clicked candidates per impression
STOPWORD_SHARE = 0.25  # assumed


@dataclass(frozen=True)
class CorpusSpec:
    n_news: int
    roots_per_category: int
    n_users: int
    impressions_per_user: int
    test_fraction: float = 0.2  # share of each user's impressions held out


@dataclass(frozen=True)
class CorpusFiles:
    news: str
    behaviors_train: str
    behaviors_test: str
    history_lengths: tuple[int, ...]
    user_categories: tuple[int, ...]  # the one category each user clicks
    candidates: tuple[int, ...]  # per impression, clicked one included


def _roots(rng: np.random.Generator, consonants: str, size: int) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < size:
        syllables = int(rng.integers(2, 5))
        word = "".join(consonants[rng.integers(len(consonants))] + _VOWELS[rng.integers(5)]
                       for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _lognormal_counts(rng, median: float, sigma: float, lo: int, hi: int, n: int) -> np.ndarray:
    """The n evenly spaced quantiles of a clipped lognormal, in seeded order.

    Every seed gets the same multiset of lengths, so the work a run does
    does not swing with the seed; only which item gets which length does.
    """
    z = np.array([_NORMAL.inv_cdf((i + 0.5) / n) for i in range(n)])
    counts = np.clip(np.rint(median * np.exp(sigma * z)).astype(np.int64), lo, hi)
    return counts[rng.permutation(n)]


def _text(rng, roots: list[str], words: int) -> str:
    """``words`` words, at least one of them a content word."""
    stops = int(rng.binomial(words - 1, STOPWORD_SHARE))
    content = words - stops
    # Zipf's law over the category's roots: rank r is drawn with weight 1/(r+1)
    weights = 1.0 / np.arange(1, len(roots) + 1)
    ranks = rng.choice(len(roots), size=content, p=weights / weights.sum())
    suffixes = rng.integers(len(_SUFFIXES), size=content)
    out = [roots[int(r)] + _SUFFIXES[int(s)] for r, s in zip(ranks, suffixes)]
    for _ in range(stops):
        out.insert(int(rng.integers(len(out) + 1)), _STOPWORDS[int(rng.integers(len(_STOPWORDS)))])
    return " ".join(out)


def _timestamp(index: int) -> str:
    minutes, seconds = divmod(37 * index, 60)
    hours, minutes = divmod(minutes, 60)
    return f"11/{1 + hours // 24 % 28}/2019 {1 + hours % 12}:{minutes:02d}:{seconds:02d} AM"


def write_corpus(out_dir: str, spec: CorpusSpec, seed: int) -> CorpusFiles:
    """Write news.tsv, behaviors_train.tsv and behaviors_test.tsv."""
    rng = np.random.default_rng(seed)
    n_cat = len(_CATEGORIES)
    roots = [_roots(rng, _CONSONANTS[c], spec.roots_per_category) for c in range(n_cat)]
    title_words = _lognormal_counts(rng, *TITLE_WORDS, spec.n_news)
    abstract_words = _lognormal_counts(rng, *ABSTRACT_WORDS, spec.n_news)
    articles = []
    ids_by_cat: list[list[str]] = [[] for _ in range(n_cat)]
    for i in range(spec.n_news):
        cat = i % n_cat
        nid = f"N{i + 1}"
        title = _text(rng, roots[cat], int(title_words[i]))
        articles.append(NewsArticle(
            news_id=nid,
            category=_CATEGORIES[cat],
            subcategory=f"{_CATEGORIES[cat]}-{i % 4}",
            title=title[0].upper() + title[1:],
            abstract=_text(rng, roots[cat], int(abstract_words[i])) + ".",
            url=f"https://example.invalid/{nid}",
        ))
        ids_by_cat[cat].append(nid)

    per_cat = spec.n_news // n_cat
    # a history clicks distinct news of the user's own category
    history_lengths = np.minimum(_lognormal_counts(rng, *HISTORY_CLICKS, spec.n_users), per_cat)
    n_test = max(1, int(round(spec.test_fraction * spec.impressions_per_user)))
    train_lines, test_lines = [], []
    candidate_counts = []
    impression_id = 0
    for u in range(spec.n_users):
        cat = u % n_cat
        picks = rng.choice(per_cat, int(history_lengths[u]), replace=False)
        history = tuple(ids_by_cat[cat][int(k)] for k in picks)
        for round_no in range(spec.impressions_per_user):
            impression_id += 1
            candidates = [(ids_by_cat[cat][int(rng.integers(per_cat))], 1)]
            for _ in range(int(rng.integers(NEGATIVES[0], NEGATIVES[1] + 1))):
                other = int(rng.integers(n_cat - 1))
                other += other >= cat
                candidates.append((ids_by_cat[other][int(rng.integers(per_cat))], 0))
            candidate_counts.append(len(candidates))
            order = rng.permutation(len(candidates))
            line = format_behavior_line(ImpressionLog(
                impression_id=str(impression_id),
                user_id=f"U{u + 1}",
                timestamp=_timestamp(impression_id),
                history=history,
                candidates=tuple(candidates[int(k)] for k in order),
            ))
            held_out = round_no >= spec.impressions_per_user - n_test
            (test_lines if held_out else train_lines).append(line)

    os.makedirs(out_dir, exist_ok=True)
    files = CorpusFiles(
        news=os.path.join(out_dir, "news.tsv"),
        behaviors_train=os.path.join(out_dir, "behaviors_train.tsv"),
        behaviors_test=os.path.join(out_dir, "behaviors_test.tsv"),
        history_lengths=tuple(int(n) for n in history_lengths),
        user_categories=tuple(u % n_cat for u in range(spec.n_users)),
        candidates=tuple(candidate_counts),
    )
    for path, lines in ((files.news, [format_news_line(a) for a in articles]),
                        (files.behaviors_train, train_lines),
                        (files.behaviors_test, test_lines)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return files
