"""Command-line pipeline: prepare, train, evaluate, query, summarize.

Every subcommand accepts ``--seed``, ``--threads``, and ``--config`` (a
JSON file with ``glove`` / ``model`` / ``run`` sections; flags override
file values).  The trainer flags of ``train-glove`` and ``train-model``
mirror the fields of ``GloveConfig`` and ``ModelConfig`` (``--x-max`` sets
``x_max``), typed by their annotations in ``config``, so a new field gets
its flag without an edit here.

``main`` owns the run lifecycle: before any input is opened it resolves
the configuration, which ``config.check`` tests against each setting's
declared type and range, and checks that ``--out-dir`` is, or can become, a
directory, so a config error never leaves partial outputs; it hands the
command the config and a ``RunManifest``, in which the command records
its inputs (``_inputs``) and outputs (``_emit``) by digest; and it writes
``manifest_<command>.json`` with those digests and per-phase wall times
to ``--out-dir``.

``--threads`` (``run.threads``) has no effect: every command runs on one
thread.  It is still checked (>= 1) and recorded in the manifest, so
scripts that pass it keep working.

Exit codes: 0 success, 2 config error, 3 input error, 4 numeric failure,
5 degenerate data, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import warnings
from collections import Counter
from dataclasses import asdict, fields
from typing import Collection, Sequence, get_type_hints

import numpy as np

from . import analytics as ana
from . import glove as gl
from . import metrics as met
from . import mind
from . import model as mdl
from . import retrieval as ret
from . import textprep as tp
from .config import AppConfig, GloveConfig, ModelConfig, apply_overrides, load_config
from .errors import (ConfigError, InputError, InsufficientNegatives, MissingInput, NewsrecError,
                     NumericError)
from .manifest import RunManifest


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override every trainer seed")
    parser.add_argument("--threads", type=int, default=None, help="accepted and recorded; has no effect")
    parser.add_argument("--config", default=None, help="JSON config file")


def _add_stack(parser: argparse.ArgumentParser) -> None:
    """The four flags of the inference stack ``_model_stack`` loads."""
    for flag in ("--corpus", "--embeddings", "--model", "--out-dir"):
        parser.add_argument(flag, required=True)


def _add_config_flags(parser: argparse.ArgumentParser, section: str, cls) -> None:
    """One ``--field-name`` flag per field of the config dataclass ``cls``,
    typed by its annotation; ``seed`` is left to ``--seed``."""
    types = get_type_hints(cls)
    for f in fields(cls):
        if f.name != "seed":
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f"{section}_{f.name}",
                                type=types[f.name], default=None)


def _resolve_config(args) -> AppConfig:
    def flags(section: str, cls) -> dict:
        return {f.name: getattr(args, f"{section}_{f.name}", None) for f in fields(cls)}

    run_over = {
        "seed": args.seed,
        "threads": args.threads,
        "stopwords": getattr(args, "stopwords", None),
    }
    return apply_overrides(load_config(args.config), flags("glove", GloveConfig),
                           flags("model", ModelConfig), run_over)


def _inputs(manifest: RunManifest, *paths: str) -> None:
    """Check that each input file exists, then record its digest."""
    for path in paths:
        if not os.path.isfile(path):
            raise MissingInput(f"input file not found: {path}")
        manifest.add_input(path)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _existing_ancestor(out_dir: str) -> str:
    """``out_dir`` or, since it may not exist yet, its nearest existing ancestor."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return path


def _name_max(out_dir: str) -> int:
    """The longest file name, in bytes, allowed in ``out_dir``, asked of its
    nearest existing ancestor, which ``main`` has checked is a directory."""
    return os.pathconf(_existing_ancestor(out_dir), "PC_NAME_MAX")


def epoch_trace_csv(column: str, trace: Sequence[float]) -> str:
    """``epoch,<column>``, then one ``n,repr(value)`` line per epoch."""
    lines = [f"epoch,{column}"]
    lines.extend(f"{n},{value!r}" for n, value in enumerate(trace, 1))
    return "\n".join(lines) + "\n"


def _emit(args, manifest: RunManifest, name: str, text: str) -> str:
    """Write one output file atomically under ``--out-dir`` and record its digest."""
    path = _out_path(args, name)
    mind.write_text_atomic(path, text)
    manifest.add_output(path)
    return path


def _load_embeddings(args, params: mdl.ModelParams,
                     only: Collection[str] | None = None) -> gl.EmbeddingLookup:
    """Load ``--embeddings`` (the rows of the tokens in ``only``, if given),
    whose width must be the one ``--model`` was trained on; a load of no
    rows has no width to check."""
    lookup = gl.load_embeddings(args.embeddings, only)
    if len(lookup) and params.embed_dim != lookup.dim:
        raise ConfigError(f"{args.model} expects {params.embed_dim}-dim embeddings, "
                          f"but {args.embeddings} holds {lookup.dim}-dim vectors")
    return lookup


def _stopwords(cfg: AppConfig, manifest: RunManifest) -> frozenset[str]:
    """The ``run.stopwords`` lexicon, recorded as an input, or the bundled one."""
    if cfg.run.stopwords is not None:
        _inputs(manifest, cfg.run.stopwords)
    return tp.load_stopwords(cfg.run.stopwords)


def cmd_prepare(args, cfg: AppConfig, manifest: RunManifest) -> None:
    _inputs(manifest, args.news, args.behaviors)
    with manifest.phase("parse"):
        articles, news_errors = mind.load_news(args.news)
        logs, behavior_errors = mind.load_behaviors(args.behaviors)
        if not articles:
            raise InputError(f"{args.news}: no parseable news records")
    with manifest.phase("clean"):
        cleaned, report = tp.clean_corpus(articles)
    with manifest.phase("tokenize"):
        stopwords = _stopwords(cfg, manifest)
        corpus, dropped = tp.preprocess_corpus(cleaned, stopwords)
    corpus_path = _out_path(args, "tokenized.tsv")
    tp.save_tokenized(corpus_path, corpus)
    manifest.add_output(corpus_path)
    payload = {
        "parse_errors_news": Counter(err.reason for err in news_errors),
        "parse_errors_behaviors": Counter(err.reason for err in behavior_errors),
        "behaviors_parsed": len(logs),
        "removed_duplicates": report.removed_duplicates,
        "removed_nan": report.removed_nan,
        "removed_short_title": report.removed_short_title,
        "removed_empty_after_normalize": dropped,
        "kept": len(corpus),
    }
    _emit(args, manifest, "clean_report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"prepare: kept {len(corpus)} of {report.total} news records -> {corpus_path}")


def cmd_train_glove(args, cfg: AppConfig, manifest: RunManifest) -> None:
    _inputs(manifest, args.corpus)
    corpus = gl.encode_documents(line.title_text.split() + line.abstract_text.split()
                                 for line in tp.read_tokenized(args.corpus))
    with manifest.phase("vocabulary"):
        tokens = gl.build_vocab(corpus, min_count=cfg.glove.min_count)
    with manifest.phase("cooccurrence"):
        matrix = gl.build_cooccurrence(corpus, tokens, window=cfg.glove.window)
    del corpus
    with manifest.phase("train"):
        table, trace = gl.glove_train(matrix, cfg.glove)
    lookup = gl.EmbeddingLookup.from_rows(tokens, table.word_vectors())
    nnz = matrix.nnz
    del matrix, table   # the files need only the word vectors
    if args.format == "text":
        emb_path = _out_path(args, "embeddings.txt")
        gl.save_embeddings_text(emb_path, lookup)
    else:
        emb_path = _out_path(args, "embeddings.bin")
        gl.save_embeddings_binary(emb_path, lookup)
    manifest.add_output(emb_path)
    _emit(args, manifest, "glove_trace.csv", epoch_trace_csv("cost", trace))
    last = f", final cost {trace[-1]:.6f}" if trace else ""
    print(f"train-glove: {len(tokens)} tokens, {nnz} pairs, "
          f"{cfg.glove.epochs} epochs{last} -> {emb_path}")


def cmd_train_model(args, cfg: AppConfig, manifest: RunManifest) -> None:
    _inputs(manifest, args.corpus, args.behaviors, args.embeddings)
    corpus = tp.load_tokenized(args.corpus)
    with manifest.phase("load"):
        lookup = gl.load_embeddings(args.embeddings)
        logs, errors = mind.load_behaviors(args.behaviors)
        if not logs:
            raise InputError(f"{args.behaviors}: no parseable impression logs")
    with manifest.phase("train"):
        news_tokens = {item.news_id: item.title_tokens for item in corpus}
        params, trace = mdl.train_model(logs, news_tokens, lookup, cfg.model)
    model_path = _out_path(args, "model.bin")
    mdl.save_model(model_path, params)
    manifest.add_output(model_path)
    _emit(args, manifest, "loss_trace.csv", epoch_trace_csv("mean_loss", trace))
    last = f", final loss {trace[-1]:.6f}" if trace else ""
    print(f"train-model: {len(logs)} impressions ({len(errors)} skipped lines), "
          f"{cfg.model.epochs} epochs{last} -> {model_path}")


def cmd_evaluate(args, cfg: AppConfig, manifest: RunManifest) -> None:
    _inputs(manifest, args.behaviors)
    with manifest.phase("load"):
        _, params, index, keep_index = _model_stack(args, manifest)
        logs, errors = mind.load_behaviors(args.behaviors)
        if not logs:
            raise InputError(f"{args.behaviors}: no parseable impression logs")
    with manifest.phase("score"):
        results = mdl.score_impression_logs(logs, index.by_id, index.matrix, params)
    with manifest.phase("metrics"):
        report = met.evaluate(results)
    buf = io.StringIO()
    mind.write_predictions(((r.impression_id, mind.ranks_from_scores(r.scores))
                            for r in results), buf)
    del logs, results   # keep_index copies the matrix: not while these are held
    _emit(args, manifest, "metrics.json", report.to_json())
    _emit(args, manifest, "prediction.txt", buf.getvalue())
    keep_index()
    print(f"evaluate: auc {report.auc:.4f}, mrr {report.mrr:.4f}, "
          f"ndcg@5 {report.ndcg5:.4f}, ndcg@10 {report.ndcg10:.4f} "
          f"({report.n_impressions} impressions, {report.n_skipped} skipped, "
          f"{len(errors)} unparseable lines)")


def _model_stack(args, manifest: RunManifest):
    """The embeddings loader, the model and the corpus index of
    ``evaluate``, ``recommend`` or ``similar``, and the function to call
    once the command's own outputs are written: it writes
    ``news_index.bin`` to ``--out-dir`` if the index was built rather than
    read from there, and lists the file among the outputs.

    ``--embeddings`` is digested but parsed only when the loader is
    called: whole, once, to build the index; and to encode a free-text
    ``similar`` query, whole if the index was built, else only the rows of
    the query's tokens.  The rows a reused index lets a query skip need no
    check: an index is reused only if its key holds the digest of these
    exact ``--embeddings`` bytes, and it was written by a query that loaded
    and checked every row of them.  Of the ``--corpus`` records, only a
    build splits the token columns."""
    _inputs(manifest, args.corpus, args.embeddings)
    if not os.path.isfile(args.model):
        raise MissingInput(f"input file not found: {args.model}")
    with open(args.model, "rb") as fh:
        model = fh.read()
    # digested as parsed, so the manifest and index key name it if the file changes
    manifest.add_input(args.model, model)
    corpus = tp.load_tokenized(args.corpus)
    params = mdl.load_model(args.model, model)
    whole = functools.cache(lambda: _load_embeddings(args, params))

    def lookup(only):
        return whole() if only is None or stored is None else _load_embeddings(args, params, only)

    digests = {name: manifest.inputs[getattr(args, name)]
               for name in ("corpus", "embeddings", "model")}
    path = os.path.join(args.out_dir, ret.INDEX_FILE)
    index, stored = ret.load_or_build_index(path, corpus, lookup, params, digests)

    def keep_index() -> None:
        if stored is None:
            ret.save_index(path, index, digests)
        manifest.add_output(path, stored)

    return lookup, params, index, keep_index


def cmd_recommend(args, cfg: AppConfig, manifest: RunManifest) -> None:
    if (args.history is None) == (args.user is None):
        raise ConfigError("provide exactly one of --history or --user (with --behaviors)")
    if args.user is not None and not args.behaviors:
        raise ConfigError("--user requires --behaviors to look up that user's clicks")
    _, params, index, keep_index = _model_stack(args, manifest)
    if args.history is not None:
        history = [tok for tok in args.history.split(",") if tok]
        user_id = args.user_id or "<ad-hoc>"
    else:
        _inputs(manifest, args.behaviors)
        history = mind.load_user_clicks(args.behaviors, args.user)
        if history is None:
            raise InputError(f"user {args.user!r} does not appear in {args.behaviors}")
        user_id = args.user
    pool = [tok for tok in args.pool.split(",") if tok] if args.pool is not None else [
        item.news_id for item in index.items
    ]
    with manifest.phase("recommend"):
        rec = ret.recommend(history, pool, index, params, top_n=args.top_n, user_id=user_id)
    sys.stdout.write(ret.render_recommendations(rec, index))
    _emit(args, manifest, "recommendations.json", ret.recommendations_json(rec))
    keep_index()


def cmd_similar(args, cfg: AppConfig, manifest: RunManifest) -> None:
    lookup, params, index, keep_index = _model_stack(args, manifest)
    stopwords = _stopwords(cfg, manifest)

    def normalize(text: str) -> list[str]:
        return tp.normalize_text(text, stopwords)

    with manifest.phase("similar"):
        result = ret.similar_news(args.query, index, lookup, params, normalize,
                                  top_n=args.top_n, metric=args.metric)
    sys.stdout.write(ret.render_similarity(result))
    _emit(args, manifest, "similar.json", ret.similarity_json(result))
    keep_index()


def cmd_analytics(args, cfg: AppConfig, manifest: RunManifest) -> None:
    _inputs(manifest, args.corpus)
    corpus = tp.load_tokenized(args.corpus)
    use_raw = args.title_source == "raw"
    with manifest.phase("analytics"):
        dist = ana.category_distribution(corpus)
        categories = (list(dict.fromkeys(args.category)) if args.category
                      else sorted({item.category for item in corpus}))
        name_max = _name_max(args.out_dir)
        for cat in categories:
            if len(os.fsencode(ana.wordfreq_filename(cat))) > name_max:
                raise InputError(f"category {cat!r} makes a word-table file name longer "
                                 f"than the {name_max} bytes {args.out_dir} allows")
        tables = [ana.word_frequencies(corpus, cat, top_k=args.top_k) for cat in categories]
        hist = ana.title_length_histogram(corpus, use_raw_titles=use_raw)
    _emit(args, manifest, "categories.csv", ana.categories_csv(dist))
    for table in tables:
        _emit(args, manifest, ana.wordfreq_filename(table.category), ana.wordfreq_csv(table))
    _emit(args, manifest, "title_hist.csv", ana.title_hist_csv(hist))
    _emit(args, manifest, "analytics.json", ana.analytics_json(dist, tables, hist))
    print(f"analytics: {len(dist.rows)} category pairs, {len(tables)} word tables, "
          f"title mean {hist.mean():.2f} -> {args.out_dir}")


def cmd_stats(args, cfg: AppConfig, manifest: RunManifest) -> None:
    _inputs(manifest, args.news, args.behaviors)
    with manifest.phase("parse"):
        articles, news_errors = mind.load_news(args.news)
        logs, behavior_errors = mind.load_behaviors(args.behaviors)
    with manifest.phase("count"):
        stats = mind.compute_stats(articles, logs)
        title_lengths = [len(a.title.split()) for a in articles]
        mean_title = sum(title_lengths) / len(title_lengths) if title_lengths else 0.0
    payload = dict(
        asdict(stats),
        title_length_mean=mean_title,
        parse_errors_news=len(news_errors),
        parse_errors_behaviors=len(behavior_errors),
    )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        _emit(args, manifest, "stats.json", text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call in a process (argparse builds a
    help formatter per argument, a few ms of each call)."""
    parser = argparse.ArgumentParser(
        prog="newsrec",
        description="News recommendation pipeline: preprocessing, embeddings, "
                    "attention model, ranking evaluation, retrieval, analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse, clean, and tokenize a news corpus")
    p.add_argument("--news", required=True)
    p.add_argument("--behaviors", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stopwords", default=None, help="stopword lexicon path "
                   "(default: the bundled list)")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-glove", help="fit word embeddings on a tokenized corpus")
    p.add_argument("--corpus", required=True, help="tokenized.tsv from prepare")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", default="text", choices=("text", "binary"))
    _add_config_flags(p, "glove", GloveConfig)
    _add_common(p)
    p.set_defaults(func=cmd_train_glove)

    p = sub.add_parser("train-model", help="train the attention click model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--behaviors", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, "model", ModelConfig)
    _add_common(p)
    p.set_defaults(func=cmd_train_model)

    p = sub.add_parser("evaluate", help="score impressions and report ranking metrics")
    _add_stack(p)
    p.add_argument("--behaviors", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="rank candidate news for one user")
    _add_stack(p)
    p.add_argument("--history", default=None, help="comma-separated clicked news ids")
    p.add_argument("--user", default=None, help="user id to look up in --behaviors")
    p.add_argument("--user-id", default=None, help="label for ad-hoc --history runs")
    p.add_argument("--behaviors", default=None)
    p.add_argument("--pool", default=None, help="comma-separated candidate ids "
                   "(default: whole corpus)")
    p.add_argument("--top-n", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("similar", help="find news most similar to a query")
    _add_stack(p)
    p.add_argument("--query", required=True, help="news id, exact headline, or free text")
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--metric", default="euclidean", choices=ret.METRICS)
    p.add_argument("--stopwords", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_similar)

    p = sub.add_parser("analytics", help="emit category, word, and title-length tables")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--category", action="append", default=None,
                   help="restrict word tables to this category (repeatable)")
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--title-source", default="raw", choices=("raw", "normalized"))
    _add_common(p)
    p.set_defaults(func=cmd_analytics)

    p = sub.add_parser("stats", help="corpus-level counters for raw MIND files")
    p.add_argument("--news", required=True)
    p.add_argument("--behaviors", required=True)
    p.add_argument("--out-dir", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def _plain_warnings(command: str):
    """A ``warnings.showwarning`` that prints a warning about the input as
    one ``newsrec <command>: warning:`` line, and any other as Python does."""
    show = warnings.showwarning

    def plain(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, InsufficientNegatives):
            print(f"newsrec {command}: warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)

    return plain


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        manifest = RunManifest(args.command, asdict(cfg))
        if args.out_dir and not os.path.isdir(ancestor := _existing_ancestor(args.out_dir)):
            raise ConfigError(f"--out-dir {args.out_dir} cannot be made a directory: "
                              f"{ancestor} exists and is not one")
        try:
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.showwarning = _plain_warnings(args.command)
                args.func(args, cfg, manifest)
        except FloatingPointError as exc:   # one the command's own checks did not catch
            raise NumericError(f"float32 {exc}: an input holds values too large") from exc
        if args.out_dir:
            manifest.write(_out_path(args, f"manifest_{args.command.replace('-', '_')}.json"))
        return 0
    except NewsrecError as exc:
        print(f"newsrec {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
