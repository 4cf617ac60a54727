"""MIND-format corpus and behavior-log I/O.

Readers are streaming and line-tolerant: malformed lines are reported as
:class:`ParseError` records (with the 1-based line number) instead of
aborting, and well-formed records come back in input order.  File layouts
follow the public MIND distribution:

``news.tsv``       8 tab-separated columns
                   news_id, category, subcategory, title, abstract, url,
                   title_entities, abstract_entities
``behaviors.tsv``  5 tab-separated columns
                   impression_id, user_id, time, history, impressions
                   (history: space-separated news ids, may be empty;
                   impressions: space-separated ``<news_id>-<0|1>`` tokens)

Neither file carries a header row.

Every output is written by ``write_text_atomic``; the binary checkpoints
(``model.bin``, ``embeddings.bin``, ``news_index.bin``) share one
container of float32 values, ``write_checkpoint``/``read_checkpoint``.
"""

from __future__ import annotations

import codecs
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, MissingInput, NotAPermutation

NEWS_COLUMNS = 8
BEHAVIOR_COLUMNS = 5


@dataclass(frozen=True, slots=True)
class NewsArticle:
    news_id: str
    category: str
    subcategory: str
    title: str
    abstract: str
    url: str = ""
    title_entities: str = "[]"
    abstract_entities: str = "[]"


@dataclass(frozen=True, slots=True)
class ImpressionLog:
    impression_id: str
    user_id: str
    timestamp: str
    history: tuple[str, ...]
    candidates: tuple[tuple[str, int], ...]

    def clicked(self) -> tuple[str, ...]:
        return tuple(nid for nid, label in self.candidates if label == 1)


@dataclass(frozen=True, slots=True)
class DatasetStats:
    users: int
    news: int
    impressions: int
    click_behaviors: int
    words: int


@dataclass(frozen=True, slots=True)
class ParseError:
    line_no: int
    reason: str
    detail: str = ""


def _decode(line: bytes, line_no: int) -> tuple[str | None, ParseError | None]:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        return None, ParseError(line_no, "NonUtf8Line", str(exc))
    return text.rstrip("\r\n"), None


def _parse_news_line(line: bytes, line_no: int):
    text, err = _decode(line, line_no)
    if err is not None:
        return None, err
    fields = text.split("\t")
    if len(fields) != NEWS_COLUMNS:
        return None, ParseError(line_no, "WrongColumnCount", f"got {len(fields)} columns")
    news_id, category, subcategory, title, abstract, url, t_ent, a_ent = fields
    if not news_id.strip():
        return None, ParseError(line_no, "EmptyNewsId")
    if news_id.startswith("\ufeff"):
        # say, a second mark after the one _read_binary_lines drops: at the
        # head of tokenized.tsv, its readers would drop it and see another id
        return None, ParseError(line_no, "ByteOrderMarkInNewsId", f"news_id={news_id!r}")
    if not category.strip() or not subcategory.strip():
        return None, ParseError(line_no, "EmptyCategory", f"news_id={news_id}")
    article = NewsArticle(news_id, category, subcategory, title, abstract, url, t_ent, a_ent)
    return article, None


def _parse_behavior_line(line: bytes, line_no: int):
    text, err = _decode(line, line_no)
    if err is not None:
        return None, err
    fields = text.split("\t")
    if len(fields) != BEHAVIOR_COLUMNS:
        return None, ParseError(line_no, "WrongColumnCount", f"got {len(fields)} columns")
    impression_id, user_id, timestamp, history_field, impressions_field = fields
    history = tuple(tok for tok in history_field.split(" ") if tok)
    candidates: list[tuple[str, int]] = []
    for tok in impressions_field.split(" "):
        if not tok:
            continue
        news_id, sep, suffix = tok.rpartition("-")
        if not sep or suffix not in ("0", "1") or not news_id:
            return None, ParseError(line_no, "BadLabelSuffix", f"token={tok!r}")
        candidates.append((news_id, int(suffix)))
    if not candidates:
        return None, ParseError(line_no, "EmptyCandidates")
    return ImpressionLog(impression_id, user_id, timestamp, history, tuple(candidates)), None


def _parse_lines(lines, line_parser):
    """Apply a per-line parser, keeping records and errors in input order."""
    records, errors = [], []
    for line_no, line in enumerate(lines, start=1):
        rec, err = line_parser(line, line_no)
        if err is not None:
            errors.append(err)
        else:
            records.append(rec)
    return records, errors


def parse_news(lines: Iterable[bytes]):
    """Parse news.tsv lines, as bytes, into (articles, parse errors)."""
    return _parse_lines(lines, _parse_news_line)


def parse_behaviors(lines: Iterable[bytes]):
    """Parse behaviors.tsv lines, as bytes, into (impression logs, parse errors)."""
    return _parse_lines(lines, _parse_behavior_line)


def _read_binary_lines(path: str):
    """The lines of ``path`` as bytes, after its UTF-8 byte-order mark if it has one."""
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        yield from fh


def load_news(path: str):
    if not os.path.isfile(path):
        raise MissingInput(f"news file not found: {path}")
    return parse_news(_read_binary_lines(path))


def load_behaviors(path: str):
    if not os.path.isfile(path):
        raise MissingInput(f"behaviors file not found: {path}")
    return parse_behaviors(_read_binary_lines(path))


def format_behavior_line(log: ImpressionLog) -> str:
    """Inverse of the behaviors.tsv line parser (round-trip safe)."""
    history = " ".join(log.history)
    impressions = " ".join(f"{nid}-{label}" for nid, label in log.candidates)
    return "\t".join([log.impression_id, log.user_id, log.timestamp, history, impressions])


def format_news_line(article: NewsArticle) -> str:
    return "\t".join(
        [
            article.news_id,
            article.category,
            article.subcategory,
            article.title,
            article.abstract,
            article.url,
            article.title_entities,
            article.abstract_entities,
        ]
    )


def user_click_sequences(logs: Sequence[ImpressionLog]) -> dict[str, list[str]]:
    """Chronological clicked-news sequence per user.

    The sequence is the user's first known click history followed by the
    clicked candidates of each of their impressions in file order (the
    history field of later impressions restates earlier clicks and is not
    re-counted).
    """
    sequences: dict[str, list[str]] = {}
    for log in logs:
        seq = sequences.get(log.user_id)
        if seq is None:
            seq = list(log.history)
            sequences[log.user_id] = seq
        seq.extend(log.clicked())
    return sequences


def load_user_clicks(path: str, user_id: str) -> list[str] | None:
    """``user_click_sequences(load_behaviors(path)[0]).get(user_id)``,
    parsing only the lines whose second tab-separated field is ``user_id``.

    Each line is split only far enough to read that field, as raw bytes; a
    line that matches is then parsed in full, so a malformed one is left
    out, as ``load_behaviors`` leaves it out.
    """
    if not os.path.isfile(path):
        raise MissingInput(f"behaviors file not found: {path}")
    # a user id no UTF-8 line can hold (a lone surrogate) matches only
    # lines that then fail to decode
    key = user_id.encode("utf-8", "surrogatepass")
    logs = []
    for line_no, line in enumerate(_read_binary_lines(path), start=1):
        fields = line.split(b"\t", 2)
        if len(fields) == 3 and fields[1] == key:
            log, _ = _parse_behavior_line(line, line_no)
            if log is not None:
                logs.append(log)
    return user_click_sequences(logs).get(user_id)


def compute_stats(news: Sequence[NewsArticle], logs: Sequence[ImpressionLog]) -> DatasetStats:
    """Corpus-level counters: users, news, impressions, clicks, words."""
    users = len({log.user_id for log in logs})
    clicks = sum(len(log.history) + sum(label for _, label in log.candidates) for log in logs)
    words = sum(len(a.title.split()) + len(a.abstract.split()) for a in news)
    return DatasetStats(
        users=users,
        news=len(news),
        impressions=len(logs),
        click_behaviors=clicks,
        words=words,
    )


def ranks_from_scores(scores: Sequence[float]) -> list[int]:
    """1-based rank of each candidate under descending score.

    Ties keep original candidate order, so [0.9, 0.1, 0.5] -> [1, 3, 2].
    This is the one ranking rule: ``prediction.txt`` holds these ranks and
    ``metrics.mrr`` and ``metrics.ndcg_at`` score them.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = [0] * len(scores)
    for position, idx in enumerate(order, start=1):
        ranks[idx] = position
    return ranks


def _check_permutation(impression_id: str, ranks: Sequence[int]) -> None:
    if sorted(ranks) != list(range(1, len(ranks) + 1)):
        raise NotAPermutation(f"{impression_id}: ranks {list(ranks)} are not a permutation of 1..{len(ranks)}")


def _impression_sort_key(impression_id: str) -> tuple[int, int, str]:
    # ASCII-digit ids sort numerically without int() ("9" before "10", "007"
    # ties "7"): by length without leading zeros, then by digits; all other
    # ids sort after them by code point
    if impression_id.isascii() and impression_id.isdigit():
        digits = impression_id.lstrip("0")
        return (0, len(digits), digits)
    return (1, 0, impression_id)


def write_predictions(ranked: Iterable[tuple[str, Sequence[int]]], sink) -> None:
    """Write leaderboard-format lines ``impression_id [r1,r2,...]``.

    Lines are sorted by impression id: ids of ASCII digits numerically
    first, then all others by code point; every rank list must be a
    permutation of 1..k.
    """
    rows = sorted(ranked, key=lambda item: _impression_sort_key(item[0]))
    for impression_id, ranks in rows:
        _check_permutation(impression_id, ranks)
        sink.write(f"{impression_id} [{','.join(str(r) for r in ranks)}]\n")


def read_predictions(lines: Iterable[str]) -> list[tuple[str, list[int]]]:
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        impression_id, _, rest = line.partition(" ")
        ranks = [int(tok) for tok in rest.strip("[]").split(",") if tok]
        out.append((impression_id, ranks))
    return out


def write_text_atomic(path: str, data: str | bytes) -> None:
    """Write a whole file atomically (tmp file + rename); text goes out as
    UTF-8 with its newlines untranslated.

    The file gets the mode ``open`` gives a new file, 0o666 less the umask,
    where the tmp file alone would be private to its owner.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_checkpoint(path: str, magic: bytes, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write a binary checkpoint atomically: ``magic``, the byte length of
    the header as ``<I``, the header as sorted-key UTF-8 JSON, then each
    array's values in turn as little-endian float32."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [magic, struct.pack("<I", len(blob)), blob]
    chunks.extend(np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in arrays)
    write_text_atomic(path, b"".join(chunks))


def read_checkpoint(path: str, magic: bytes, what: str,
                    blob: bytes | None = None) -> tuple[dict, np.ndarray]:
    """The header and the flat float32 payload of a ``write_checkpoint``
    file; another magic, a cut or garbled header, a header that is not a
    JSON object, or a payload that is not whole values raises ConfigError
    naming ``path`` (``what`` says what the file should be).  ``blob`` is
    the file's bytes, when the caller has read them already."""
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    if blob[: len(magic)] != magic:
        raise ConfigError(f"{path} is not {what}: it starts with "
                          f"{blob[: len(magic)]!r}, not {magic!r}")
    start = len(magic) + 4
    try:
        (size,) = struct.unpack_from("<I", blob, len(magic))
        if len(blob) < start + size:
            raise ValueError(f"{size}-byte header, {len(blob) - start} bytes left")
        header = json.loads(blob[start : start + size].decode("utf-8"))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise ConfigError(f"{path} has a truncated or garbled header: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{path} has a header that is not a JSON object")
    offset = start + size
    if (len(blob) - offset) % 4:
        raise ConfigError(f"{path} holds {len(blob) - offset} payload bytes, "
                          f"not whole float32 values")
    return header, np.frombuffer(blob, dtype="<f4", offset=offset)
