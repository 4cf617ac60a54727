"""Synthetic planted-preference corpus for end-to-end testing.

Each category owns a disjoint pseudo-word vocabulary (disjoint consonant
inventories, so even stemmed forms cannot collide across categories), and
each user clicks news from exactly one category.  A working pipeline must
therefore rank the preferred-category candidate above the others, which
gives a known learnable signal with a known ceiling.

Writers emit standard news/behaviors TSV files plus an 80/20
train/test split of the impressions (per user: the chronologically last
fifth of their impressions are held out).

Noise options blur that signal, so a model can score below the ceiling
and a quality bound can fail before the model collapses: clicks and
history entries from a random category, words from a pool that every
category shares, and negatives from any category.  Their defaults draw
nothing extra from the generator, so a seed keeps its bytes.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mind import ImpressionLog, NewsArticle, format_behavior_line, format_news_line, write_text_atomic

_CONSONANT_SETS = ("bdg", "klm", "prs", "tvz", "fjn", "cqw", "xhy")
_VOWELS = "aeiou"
_CATEGORY_NAMES = ("health", "sports", "finance", "travel", "movies", "weather", "gaming")
_FILLER = ("the", "to", "of", "a", "in", "for")
# Words of the shared pool start with a vowel, and category words with a
# consonant; stemming only strips suffixes, so the two never meet.
_SHARED_POOL = 60


@dataclass(frozen=True, slots=True)
class FixturePaths:
    root: str
    news: str
    behaviors_train: str
    behaviors_test: str


def _vocab(rng: np.random.Generator, first: str, second: str, size: int) -> list[str]:
    """``size`` distinct words of three syllables, each a letter of
    ``first`` then a letter of ``second``."""
    words: list[str] = []
    seen = set()
    while len(words) < size:
        word = "".join(
            first[rng.integers(len(first))] + second[rng.integers(len(second))]
            for _ in range(3)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _timestamp(index: int) -> str:
    t = dt.datetime(2019, 11, 1, 6, 0, 0) + dt.timedelta(seconds=37 * index)
    hour12 = t.hour % 12 or 12
    ampm = "AM" if t.hour < 12 else "PM"
    return f"{t.month}/{t.day}/{t.year} {hour12}:{t.minute:02d}:{t.second:02d} {ampm}"


def _word(rng: np.random.Generator, vocab: list[str], shared: list[str], share: float) -> str:
    if share and rng.random() < share:
        return shared[rng.integers(len(shared))]
    return vocab[rng.integers(len(vocab))]


def _phrase(rng: np.random.Generator, vocab: list[str], length: int,
            shared: list[str], share: float) -> list[str]:
    words = [_word(rng, vocab, shared, share) for _ in range(length)]
    # sprinkle stopwords so preprocessing has something to remove
    if rng.random() < 0.7:
        pos = int(rng.integers(len(words) + 1))
        words.insert(pos, _FILLER[rng.integers(len(_FILLER))])
    return words


def _random_news(rng: np.random.Generator, ids_by_category: list[list[str]]) -> str:
    """A news id from a uniformly random category."""
    ids = ids_by_category[int(rng.integers(len(ids_by_category)))]
    return ids[int(rng.integers(len(ids)))]


def generate_corpus(
    out_dir: str,
    n_news: int = 500,
    n_categories: int = 5,
    n_users: int = 200,
    n_impressions: int = 2000,
    words_per_category: int = 30,
    title_words: int = 6,
    abstract_words: int = 15,
    history_min: int = 8,
    history_max: int = 12,
    negatives_per_impression: int = 4,
    train_fraction: float = 0.8,
    seed: int = 7,
    click_noise: float = 0.0,
    history_noise: float = 0.0,
    shared_word_share: float = 0.0,
    negatives_any_category: bool = False,
) -> FixturePaths:
    """Write news.tsv plus behaviors_train.tsv / behaviors_test.tsv.

    Deterministic for a fixed seed.  Users are assigned categories round
    robin; every impression shows one preferred-category candidate (the
    click) and ``negatives_per_impression`` candidates from other
    categories, in shuffled order.

    Noise: with probability ``click_noise`` a click, and with probability
    ``history_noise`` a history entry, comes from a uniformly random
    category instead; each title and abstract word comes with probability
    ``shared_word_share`` from a pool of 60 words that all categories
    share; ``negatives_any_category`` draws the negatives without
    replacement from every news item but the click.
    """
    if not 2 <= n_categories <= len(_CONSONANT_SETS):
        raise ConfigError(f"n_categories must be in [2, {len(_CONSONANT_SETS)}], got {n_categories}")
    if n_news % n_categories:
        raise ConfigError(f"n_news={n_news} must divide evenly into {n_categories} categories")
    if n_impressions % n_users:
        raise ConfigError(f"n_impressions={n_impressions} must divide evenly over {n_users} users")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0,1), got {train_fraction}")
    for name, share in (("click_noise", click_noise), ("history_noise", history_noise),
                        ("shared_word_share", shared_word_share)):
        if not 0.0 <= share <= 1.0:
            raise ConfigError(f"{name} must be in [0,1], got {share}")
    if negatives_any_category and negatives_per_impression >= n_news:
        raise ConfigError(f"negatives_per_impression={negatives_per_impression} needs more "
                          f"than {n_news} news to draw without replacement")
    rng = np.random.default_rng(seed)
    per_category = n_news // n_categories
    vocabs = [
        _vocab(rng, _CONSONANT_SETS[c], _VOWELS, words_per_category)
        for c in range(n_categories)
    ]
    shared = (_vocab(rng, _VOWELS, "".join(_CONSONANT_SETS), _SHARED_POOL)
              if shared_word_share else [])

    articles: list[NewsArticle] = []
    ids_by_category: list[list[str]] = [[] for _ in range(n_categories)]
    for i in range(n_news):
        cat = i % n_categories
        news_id = f"N{i + 1}"
        title = " ".join(_phrase(rng, vocabs[cat], title_words, shared, shared_word_share))
        abstract = " ".join(_phrase(rng, vocabs[cat], abstract_words, shared,
                                    shared_word_share)) + "."
        articles.append(NewsArticle(
            news_id=news_id,
            category=_CATEGORY_NAMES[cat],
            subcategory=f"{_CATEGORY_NAMES[cat]}-{i % 3}",
            title=title[0].upper() + title[1:],
            abstract=abstract,
            url=f"https://example.invalid/{news_id}",
            title_entities="[]",
            abstract_entities="[]",
        ))
        ids_by_category[cat].append(news_id)

    per_user = n_impressions // n_users
    n_test = max(1, per_user - int(round(train_fraction * per_user)))
    histories: list[list[str]] = []
    for u in range(n_users):
        cat = u % n_categories
        size = int(rng.integers(history_min, history_max + 1))
        picks = rng.choice(per_category, size=size, replace=False)
        history = [ids_by_category[cat][int(p)] for p in picks]
        if history_noise:
            for i in range(size):
                if rng.random() < history_noise:
                    history[i] = _random_news(rng, ids_by_category)
        histories.append(history)

    train_logs: list[ImpressionLog] = []
    test_logs: list[ImpressionLog] = []
    impression_id = 0
    for round_no in range(per_user):
        for u in range(n_users):
            impression_id += 1
            cat = u % n_categories
            if click_noise and rng.random() < click_noise:
                positive = _random_news(rng, ids_by_category)
            else:
                positive = ids_by_category[cat][int(rng.integers(per_category))]
            candidates = [(positive, 1)]
            if negatives_any_category:
                # news N{i + 1} is article i: skip the click's index
                click = int(positive[1:]) - 1
                picks = rng.choice(n_news - 1, size=negatives_per_impression, replace=False)
                candidates.extend((f"N{int(p) + (p >= click) + 1}", 0) for p in picks)
            else:
                for _ in range(negatives_per_impression):
                    other = int(rng.integers(n_categories - 1))
                    if other >= cat:
                        other += 1
                    neg = ids_by_category[other][int(rng.integers(per_category))]
                    candidates.append((neg, 0))
            order = rng.permutation(len(candidates))
            log = ImpressionLog(
                impression_id=str(impression_id),
                user_id=f"U{u + 1}",
                timestamp=_timestamp(impression_id),
                history=tuple(histories[u]),
                candidates=tuple(candidates[int(k)] for k in order),
            )
            if round_no < per_user - n_test:
                train_logs.append(log)
            else:
                test_logs.append(log)

    os.makedirs(out_dir, exist_ok=True)
    paths = FixturePaths(
        root=out_dir,
        news=os.path.join(out_dir, "news.tsv"),
        behaviors_train=os.path.join(out_dir, "behaviors_train.tsv"),
        behaviors_test=os.path.join(out_dir, "behaviors_test.tsv"),
    )
    write_text_atomic(paths.news, "\n".join(format_news_line(a) for a in articles) + "\n")
    write_text_atomic(
        paths.behaviors_train, "\n".join(format_behavior_line(b) for b in train_logs) + "\n"
    )
    write_text_atomic(
        paths.behaviors_test, "\n".join(format_behavior_line(b) for b in test_logs) + "\n"
    )
    return paths
