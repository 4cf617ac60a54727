"""Two-stage content preprocessing.

Stage one (:func:`clean_corpus`) drops duplicate news ids, records with an
empty title or abstract, and records whose raw title has three or fewer
whitespace tokens.  Stage two (:func:`preprocess_article`) normalizes the
surviving text: tokenize, remove stopwords, stem.  Every operation here is
a pure function, so corpora can be mapped in any order with identical
results.

One record type, :class:`TokenizedNews`, holds a news item from here on:
the seven fields of its ``tokenized.tsv`` line as they are written, the
token columns as space-joined text that is split only when a caller reads
``title_tokens`` or ``abstract_tokens``.  :func:`save_tokenized` writes the
records and :func:`read_tokenized` streams them back.
"""

from __future__ import annotations

import os
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import AllTokensRemoved, InputError, MissingInput
from .mind import NewsArticle, write_text_atomic
from .porter import stem

MIN_TITLE_TOKENS = 4  # raw titles with fewer whitespace tokens are dropped


@dataclass(frozen=True, slots=True)
class CleanReport:
    removed_duplicates: int
    removed_nan: int
    removed_short_title: int
    kept: int

    @property
    def total(self) -> int:
        return self.removed_duplicates + self.removed_nan + self.removed_short_title + self.kept


class TokenizedNews(NamedTuple):
    """One ``tokenized.tsv`` line: its seven fields in file order.

    ``title_text`` and ``abstract_text`` are the normalized tokens joined
    by single spaces; ``title_tokens`` and ``abstract_tokens`` split them
    when read, so a caller that does not read a token column never splits
    it.  The raw title and abstract are carried along for analytics and
    display.
    """

    news_id: str
    category: str
    subcategory: str
    raw_title: str
    raw_abstract: str
    title_text: str
    abstract_text: str

    @property
    def title_tokens(self) -> tuple[str, ...]:
        return tuple(self.title_text.split())

    @property
    def abstract_tokens(self) -> tuple[str, ...]:
        return tuple(self.abstract_text.split())


def clean_corpus(articles: Sequence[NewsArticle]) -> tuple[list[NewsArticle], CleanReport]:
    """Drop duplicates, empty title/abstract records, and short titles.

    Checks run in that order, each record counted once against the first
    rule it violates; survivors keep input order.  Idempotent.
    """
    seen: set[str] = set()
    kept: list[NewsArticle] = []
    dup = nan = short = 0
    for article in articles:
        if article.news_id in seen:
            dup += 1
            continue
        seen.add(article.news_id)
        if not article.title.strip() or not article.abstract.strip():
            nan += 1
            continue
        if len(article.title.split()) < MIN_TITLE_TOKENS:
            short += 1
            continue
        kept.append(article)
    return kept, CleanReport(dup, nan, short, len(kept))


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation.

    Interior apostrophes and hyphens survive; tokens that reduce to the
    empty string are dropped.
    """
    out = []
    for raw in text.lower().split():
        # an alphanumeric character is never in a P* category, so a token
        # with alphanumeric edges has nothing for _strip_punct to strip
        tok = raw if raw[0].isalnum() and raw[-1].isalnum() else _strip_punct(raw)
        if tok:
            out.append(tok)
    return out


def remove_stopwords(tokens: Iterable[str], stopwords: frozenset[str]) -> list[str]:
    return [tok for tok in tokens if tok not in stopwords]


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Load the stopword lexicon (one token per line, UTF-8, a leading
    byte-order mark ignored) at ``path``, or the lexicon bundled with the
    package if ``path`` is None."""
    if path is None:
        text = resources.files("newsrec").joinpath("assets/stopwords_en.txt").read_text("utf-8")
    else:
        if not os.path.isfile(path):
            raise MissingInput(f"stopword lexicon not found: {path}")
        try:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not valid UTF-8: {exc}") from exc
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def normalize_text(
    text: str, stopwords: frozenset[str], stems: dict[str, str] | None = None
) -> list[str]:
    """tokenize -> stopword removal -> stem.

    ``stems`` memoizes token -> stem and may be shared across calls;
    ``stem`` runs only for tokens not in it yet.
    """
    if stems is None:
        stems = {}
    out = []
    for tok in remove_stopwords(tokenize(text), stopwords):
        stemmed = stems.get(tok)
        if stemmed is None:
            stemmed = stems[tok] = stem(tok)
        out.append(stemmed)
    return out


def preprocess_article(
    article: NewsArticle, stopwords: frozenset[str], stems: dict[str, str] | None = None
) -> TokenizedNews:
    """Normalize one cleaned article's title and abstract independently.

    Raises AllTokensRemoved when the title normalizes to nothing; such
    records are meant to be dropped by the caller.  ``stems`` is passed on
    to :func:`normalize_text`.
    """
    title_tokens = normalize_text(article.title, stopwords, stems)
    if not title_tokens:
        raise AllTokensRemoved(f"title of {article.news_id} reduced to zero tokens")
    abstract_tokens = normalize_text(article.abstract, stopwords, stems)
    return TokenizedNews(article.news_id, article.category, article.subcategory,
                         article.title, article.abstract,
                         " ".join(title_tokens), " ".join(abstract_tokens))


def preprocess_corpus(
    articles: Sequence[NewsArticle], stopwords: frozenset[str]
) -> tuple[list[TokenizedNews], int]:
    """Map preprocess_article over a cleaned corpus.

    Returns the tokenized records plus the count of records dropped
    because their title normalized away entirely.  Stems are memoized for
    the length of this call only, so each distinct token is stemmed once.
    """
    out, dropped = [], 0
    stems: dict[str, str] = {}
    for article in articles:
        try:
            out.append(preprocess_article(article, stopwords, stems))
        except AllTokensRemoved:
            dropped += 1
    return out, dropped


def save_tokenized(path: str, corpus: Sequence[TokenizedNews]) -> None:
    write_text_atomic(path, "".join("\t".join(news) + "\n" for news in corpus))


def read_tokenized(path: str) -> Iterator[TokenizedNews]:
    """The records of a ``save_tokenized`` file, a leading byte-order mark
    ignored, one at a time as they are read; a line without 7 columns or a
    repeated id raises InputError.

    Lines end at ``\n`` only (a trailing ``\r`` is dropped), so a raw
    title or abstract may hold ``\r`` or any other line separator but
    ``\n``."""
    if not os.path.isfile(path):
        raise MissingInput(f"tokenized corpus not found: {path}")
    columns = len(TokenizedNews._fields)
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                fields = line.rstrip("\r\n").split("\t")
                if len(fields) != columns:
                    raise InputError(f"{path}:{lineno}: expected {columns} columns, "
                                     f"got {len(fields)}")
                seen = first_line.setdefault(fields[0], lineno)
                if seen != lineno:
                    raise InputError(f"{path}:{lineno}: news id {fields[0]!r} repeats line {seen}")
                yield TokenizedNews._make(fields)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from exc


def load_tokenized(path: str) -> list[TokenizedNews]:
    """The records of a ``save_tokenized`` file, read by ``read_tokenized``."""
    return list(read_tokenized(path))
