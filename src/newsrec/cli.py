"""Command-line pipeline: prepare, train, evaluate, query, summarize.

Every subcommand accepts ``--seed``, ``--threads``, and ``--config`` (a
JSON file with ``glove`` / ``model`` / ``run`` sections; flags override
file values).  Configuration is validated before any input is opened, so
a config error never leaves partial outputs.  Each run writes a manifest
with input/output digests and per-phase wall times.

``--threads`` (``run.threads``) has no effect: every command runs on one
thread.  It is still validated (>= 1) and recorded in the manifest, so
scripts that pass it keep working.

Exit codes: 0 success, 2 config error, 3 input error, 4 numeric failure,
5 degenerate data, 1 anything else.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import asdict
from typing import Sequence

from . import analytics as ana
from . import glove as gl
from . import metrics as met
from . import mind
from . import model as mdl
from . import retrieval as ret
from . import textprep as tp
from ._kernels import backend_name
from .config import AppConfig, apply_overrides, load_config
from .errors import ConfigError, InputError, MissingInput, NewsrecError
from .manifest import RunManifest


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override every trainer seed")
    parser.add_argument("--threads", type=int, default=None, help="accepted and recorded; has no effect")
    parser.add_argument("--config", default=None, help="JSON config file")


def _resolve_config(args) -> AppConfig:
    glove_keys = ("dim", "window", "x_max", "alpha", "learning_rate", "epochs", "min_count")
    model_keys = ("heads", "d_head", "d_attn", "negatives", "max_title_tokens",
                  "max_history", "learning_rate", "epochs", "batch_size")
    glove_over = {k: getattr(args, f"glove_{k}", None) for k in glove_keys}
    model_over = {k: getattr(args, f"model_{k}", None) for k in model_keys}
    run_over = {
        "seed": args.seed,
        "threads": args.threads,
        "stopwords": getattr(args, "stopwords", None),
    }
    return apply_overrides(load_config(args.config), glove_over, model_over, run_over)


def _require_files(*paths: str) -> None:
    for path in paths:
        if not os.path.isfile(path):
            raise MissingInput(f"input file not found: {path}")


def _manifest(args, cfg: AppConfig) -> RunManifest:
    return RunManifest(
        command=args.command,
        config=dict(asdict(cfg), kernel_backend=backend_name()),
        seed=cfg.run.seed,
        threads=cfg.run.threads,
    )


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _load_corpus(path: str) -> list[tp.TokenizedNews]:
    _require_files(path)
    return tp.load_tokenized(path)


def _corpus_documents(corpus: Sequence[tp.TokenizedNews]) -> list[list[str]]:
    return [list(item.title_tokens) + list(item.abstract_tokens) for item in corpus]


def _news_tokens(corpus: Sequence[tp.TokenizedNews]) -> dict[str, tuple[str, ...]]:
    return {item.news_id: item.title_tokens for item in corpus}


def _parse_error_summary(errors) -> dict:
    by_reason: dict[str, int] = {}
    for err in errors:
        by_reason[err.reason] = by_reason.get(err.reason, 0) + 1
    return by_reason


def cmd_prepare(args) -> int:
    cfg = _resolve_config(args)
    _require_files(args.news, args.behaviors)
    manifest = _manifest(args, cfg)
    manifest.add_input(args.news)
    manifest.add_input(args.behaviors)
    with manifest.phase("parse"):
        articles, news_errors = mind.load_news(args.news)
        logs, behavior_errors = mind.load_behaviors(args.behaviors)
        if not articles:
            raise InputError(f"{args.news}: no parseable news records")
    with manifest.phase("clean"):
        cleaned, report = tp.clean_corpus(articles)
    with manifest.phase("tokenize"):
        stopwords = tp.load_stopwords(cfg.run.stopwords)
        corpus, dropped = tp.preprocess_corpus(cleaned, stopwords)
    corpus_path = _out_path(args, "tokenized.tsv")
    report_path = _out_path(args, "clean_report.json")
    tp.save_tokenized(corpus_path, corpus)
    payload = {
        "parse_errors_news": _parse_error_summary(news_errors),
        "parse_errors_behaviors": _parse_error_summary(behavior_errors),
        "behaviors_parsed": len(logs),
        "removed_duplicates": report.removed_duplicates,
        "removed_nan": report.removed_nan,
        "removed_short_title": report.removed_short_title,
        "removed_empty_after_normalize": dropped,
        "kept": len(corpus),
    }
    mind.write_text_atomic(report_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest.add_output(corpus_path)
    manifest.add_output(report_path)
    manifest.write(_out_path(args, "manifest_prepare.json"))
    print(f"prepare: kept {len(corpus)} of {report.total} news records -> {corpus_path}")
    return 0


def cmd_train_glove(args) -> int:
    cfg = _resolve_config(args)
    if args.format not in ("text", "binary"):
        raise ConfigError(f"--format must be text or binary, got {args.format!r}")
    corpus = _load_corpus(args.corpus)
    manifest = _manifest(args, cfg)
    manifest.add_input(args.corpus)
    documents = _corpus_documents(corpus)
    with manifest.phase("vocabulary"):
        vocab = gl.build_vocab(documents, min_count=cfg.glove.min_count)
    with manifest.phase("cooccurrence"):
        matrix = gl.build_cooccurrence(documents, vocab, window=cfg.glove.window)
    with manifest.phase("train"):
        if cfg.glove.epochs == 0:
            table = gl.init_table(len(vocab), cfg.glove.dim, cfg.glove.seed)
            trace: list[float] = []
        else:
            table, trace = gl.glove_train(matrix, cfg.glove)
    lookup = gl.EmbeddingLookup.from_table(vocab, table)
    ext = "txt" if args.format == "text" else "bin"
    emb_path = _out_path(args, f"embeddings.{ext}")
    if args.format == "text":
        gl.save_embeddings_text(emb_path, lookup, cfg.glove)
    else:
        gl.save_embeddings_binary(emb_path, lookup, cfg.glove)
    trace_path = _out_path(args, "glove_trace.csv")
    mind.write_text_atomic(trace_path, gl.cost_trace_csv(trace))
    manifest.add_output(emb_path)
    manifest.add_output(trace_path)
    manifest.write(_out_path(args, "manifest_train_glove.json"))
    last = f", final cost {trace[-1]:.6f}" if trace else ""
    print(f"train-glove: {len(vocab)} tokens, {matrix.nnz} pairs, "
          f"{cfg.glove.epochs} epochs{last} -> {emb_path}")
    return 0


def cmd_train_model(args) -> int:
    cfg = _resolve_config(args)
    corpus = _load_corpus(args.corpus)
    _require_files(args.behaviors, args.embeddings)
    manifest = _manifest(args, cfg)
    for path in (args.corpus, args.behaviors, args.embeddings):
        manifest.add_input(path)
    with manifest.phase("load"):
        lookup = gl.load_embeddings(args.embeddings)
        logs, errors = mind.load_behaviors(args.behaviors)
        if not logs:
            raise InputError(f"{args.behaviors}: no parseable impression logs")
    with manifest.phase("train"):
        params, trace = mdl.train_model(logs, _news_tokens(corpus), lookup, cfg.model)
    model_path = _out_path(args, "model.bin")
    mdl.save_model(model_path, params)
    trace_path = _out_path(args, "loss_trace.csv")
    mind.write_text_atomic(trace_path, mdl.loss_trace_csv(trace))
    manifest.add_output(model_path)
    manifest.add_output(trace_path)
    manifest.write(_out_path(args, "manifest_train_model.json"))
    last = f", final loss {trace[-1]:.6f}" if trace else ""
    print(f"train-model: {len(logs)} impressions ({len(errors)} skipped lines), "
          f"{cfg.model.epochs} epochs{last} -> {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    corpus = _load_corpus(args.corpus)
    _require_files(args.behaviors, args.embeddings, args.model)
    manifest = _manifest(args, cfg)
    for path in (args.corpus, args.behaviors, args.embeddings, args.model):
        manifest.add_input(path)
    with manifest.phase("load"):
        lookup = gl.load_embeddings(args.embeddings)
        params = mdl.load_model(args.model)
        logs, _ = mind.load_behaviors(args.behaviors)
        if not logs:
            raise InputError(f"{args.behaviors}: no parseable impression logs")
    with manifest.phase("score"):
        results = mdl.score_impression_logs(logs, _news_tokens(corpus), lookup, params)
    with manifest.phase("metrics"):
        report = met.evaluate(results)
    metrics_path = _out_path(args, "metrics.json")
    mind.write_text_atomic(metrics_path, report.to_json())
    pred_path = _out_path(args, "prediction.txt")
    ranked = [(r.impression_id, mind.ranks_from_scores(r.scores)) for r in results]
    buf = io.StringIO()
    mind.write_predictions(ranked, buf)
    mind.write_text_atomic(pred_path, buf.getvalue())
    manifest.add_output(metrics_path)
    manifest.add_output(pred_path)
    manifest.write(_out_path(args, "manifest_evaluate.json"))
    print(f"evaluate: auc {report.auc:.4f}, mrr {report.mrr:.4f}, "
          f"ndcg@5 {report.ndcg5:.4f}, ndcg@10 {report.ndcg10:.4f} "
          f"({report.n_impressions} impressions, {report.n_skipped} skipped)")
    return 0


def _model_stack(args):
    corpus = _load_corpus(args.corpus)
    _require_files(args.embeddings, args.model)
    lookup = gl.load_embeddings(args.embeddings)
    params = mdl.load_model(args.model)
    index = ret.CorpusIndex(corpus, lookup, params)
    return corpus, lookup, params, index


def cmd_recommend(args) -> int:
    cfg = _resolve_config(args)
    if bool(args.history) == bool(args.user):
        raise ConfigError("provide exactly one of --history or --user (with --behaviors)")
    if args.user and not args.behaviors:
        raise ConfigError("--user requires --behaviors to look up that user's clicks")
    corpus, lookup, params, index = _model_stack(args)
    manifest = _manifest(args, cfg)
    for path in (args.corpus, args.embeddings, args.model):
        manifest.add_input(path)
    if args.history:
        history = [tok for tok in args.history.split(",") if tok]
        user_id = args.user_id or "<ad-hoc>"
    else:
        _require_files(args.behaviors)
        manifest.add_input(args.behaviors)
        logs, _ = mind.load_behaviors(args.behaviors)
        sequences = mind.user_click_sequences(logs)
        if args.user not in sequences:
            raise InputError(f"user {args.user!r} does not appear in {args.behaviors}")
        history = sequences[args.user]
        user_id = args.user
    pool = [tok for tok in args.pool.split(",") if tok] if args.pool else [
        item.news_id for item in index.items
    ]
    with manifest.phase("recommend"):
        rec = ret.recommend(history, pool, index, params, top_n=args.top_n, user_id=user_id)
    rendered = ret.render_recommendations(rec, index)
    sys.stdout.write(rendered)
    json_path = _out_path(args, "recommendations.json")
    mind.write_text_atomic(json_path, ret.recommendations_json(rec))
    manifest.add_output(json_path)
    manifest.write(_out_path(args, "manifest_recommend.json"))
    return 0


def cmd_similar(args) -> int:
    cfg = _resolve_config(args)
    if args.metric not in ret.METRICS:
        raise ConfigError(f"--metric must be one of {ret.METRICS}, got {args.metric!r}")
    corpus, lookup, params, index = _model_stack(args)
    manifest = _manifest(args, cfg)
    for path in (args.corpus, args.embeddings, args.model):
        manifest.add_input(path)
    stopwords = tp.load_stopwords(cfg.run.stopwords)

    def normalize(text: str) -> list[str]:
        return tp.normalize_text(text, stopwords)

    with manifest.phase("similar"):
        result = ret.similar_news(args.query, index, lookup, params, normalize,
                                  top_n=args.top_n, metric=args.metric)
    sys.stdout.write(ret.render_similarity(result))
    json_path = _out_path(args, "similar.json")
    mind.write_text_atomic(json_path, ret.similarity_json(result))
    manifest.add_output(json_path)
    manifest.write(_out_path(args, "manifest_similar.json"))
    return 0


def cmd_analytics(args) -> int:
    cfg = _resolve_config(args)
    corpus = _load_corpus(args.corpus)
    manifest = _manifest(args, cfg)
    manifest.add_input(args.corpus)
    use_raw = args.title_source == "raw"
    with manifest.phase("analytics"):
        dist = ana.category_distribution(corpus)
        categories = args.category or sorted({item.category for item in corpus})
        tables = [ana.word_frequencies(corpus, cat, top_k=args.top_k) for cat in categories]
        hist = ana.title_length_histogram(corpus, use_raw_titles=use_raw)
    outputs = [(_out_path(args, "categories.csv"), ana.categories_csv(dist))]
    outputs.extend(
        (_out_path(args, f"wordfreq_{table.category}.csv"), ana.wordfreq_csv(table))
        for table in tables
    )
    outputs.append((_out_path(args, "title_hist.csv"), ana.title_hist_csv(hist)))
    outputs.append((_out_path(args, "analytics.json"), ana.analytics_json(dist, tables, hist)))
    for path, text in outputs:
        mind.write_text_atomic(path, text)
        manifest.add_output(path)
    manifest.write(_out_path(args, "manifest_analytics.json"))
    print(f"analytics: {len(dist.rows)} category pairs, {len(tables)} word tables, "
          f"title mean {hist.mean():.2f} -> {args.out_dir}")
    return 0


def cmd_stats(args) -> int:
    cfg = _resolve_config(args)
    _require_files(args.news, args.behaviors)
    manifest = _manifest(args, cfg)
    manifest.add_input(args.news)
    manifest.add_input(args.behaviors)
    with manifest.phase("parse"):
        articles, news_errors = mind.load_news(args.news)
        logs, behavior_errors = mind.load_behaviors(args.behaviors)
    with manifest.phase("count"):
        stats = mind.compute_stats(articles, logs)
        title_lengths = [len(a.title.split()) for a in articles]
        mean_title = sum(title_lengths) / len(title_lengths) if title_lengths else 0.0
    payload = dict(
        users=stats.users,
        news=stats.news,
        impressions=stats.impressions,
        click_behaviors=stats.click_behaviors,
        words=stats.words,
        title_length_mean=mean_title,
        parse_errors_news=len(news_errors),
        parse_errors_behaviors=len(behavior_errors),
    )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out_dir:
        stats_path = _out_path(args, "stats.json")
        mind.write_text_atomic(stats_path, text)
        manifest.add_output(stats_path)
        manifest.write(_out_path(args, "manifest_stats.json"))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
                   "(default: NEWSREC_STOPWORDS env var, then the bundled list)")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-glove", help="fit word embeddings on a tokenized corpus")
    p.add_argument("--corpus", required=True, help="tokenized.tsv from prepare")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", default="text", choices=("text", "binary"))
    p.add_argument("--dim", dest="glove_dim", type=int, default=None)
    p.add_argument("--window", dest="glove_window", type=int, default=None)
    p.add_argument("--x-max", dest="glove_x_max", type=float, default=None)
    p.add_argument("--alpha", dest="glove_alpha", type=float, default=None)
    p.add_argument("--learning-rate", dest="glove_learning_rate", type=float, default=None)
    p.add_argument("--epochs", dest="glove_epochs", type=int, default=None)
    p.add_argument("--min-count", dest="glove_min_count", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_glove)

    p = sub.add_parser("train-model", help="train the attention click model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--behaviors", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--heads", dest="model_heads", type=int, default=None)
    p.add_argument("--d-head", dest="model_d_head", type=int, default=None)
    p.add_argument("--d-attn", dest="model_d_attn", type=int, default=None)
    p.add_argument("--negatives", dest="model_negatives", type=int, default=None)
    p.add_argument("--max-title-tokens", dest="model_max_title_tokens", type=int, default=None)
    p.add_argument("--max-history", dest="model_max_history", type=int, default=None)
    p.add_argument("--learning-rate", dest="model_learning_rate", type=float, default=None)
    p.add_argument("--epochs", dest="model_epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="model_batch_size", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_model)

    p = sub.add_parser("evaluate", help="score impressions and report ranking metrics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--behaviors", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="rank candidate news for one user")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
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
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NewsrecError as exc:
        print(f"newsrec {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
