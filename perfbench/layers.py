"""Which newsrec attributes the traced run wraps, and the per-layer metrics.

Each layer is a module of ``newsrec``.  Wrappers go on the attribute that
the calling module resolves at run time: ``cli`` calls ``mdl.train_model``
through the ``model`` module, ``model`` calls ``ad.backward`` through
``autodiff``, and ``textprep`` calls its own imported ``stem``.

``metrics_from`` computes every per-layer value; BENCHMARK.json's
``per_layer`` list names the ones reported, with their units.
"""

from __future__ import annotations

import os

from spans import Tracer

CLI_COMMANDS = ("prepare", "train-glove", "train-model", "evaluate", "recommend",
                "similar", "analytics")


def _graph_size(root) -> int:
    """Autodiff nodes reachable from ``root`` through ``parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer) -> None:
    """Wrap the attributes each layer's callers resolve."""
    from newsrec import analytics, autodiff, glove, manifest, metrics, mind, model, retrieval, textprep

    def on_stem(args, _result):
        tracer.count_distinct("porter.distinct", args[0])

    def on_parse(args, result):
        records, errors = result
        tracer.count("mind.lines", len(records) + len(errors))
        tracer.count("mind.parse_errors", len(errors))

    def on_backward(args, _result):
        tracer.count("autodiff.nodes", _graph_size(args[0]))

    def on_hash(args, _result):
        tracer.count("manifest.bytes_hashed", os.path.getsize(args[0]))

    def on_cooccurrence(_args, result):
        tracer.counters["glove.nnz"] = result.nnz

    def on_sweep(args, _result):
        tracer.count("_kernels.updates", len(args[0]))

    wraps = [
        (model, "encode_news", "model.encode_news", None),
        (model, "encode_user", "model.encode_user", None),
        (model, "sample_loss", "model.sample_loss", None),
        (model, "train_model", "model.train_model", None),
        (model, "build_train_samples", "model.build_train_samples",
         lambda a, r: tracer.count("model.samples", len(r))),
        (model.Adam, "step", "model.Adam.step", None),
        (model, "score_impression_logs", "model.score_impression_logs", None),
        (model, "load_model", "model.load_model", None),
        (autodiff, "backward", "autodiff.backward", on_backward),
        (retrieval.CorpusIndex, "__init__", "retrieval.CorpusIndex", None),
        (retrieval, "news_vector", "retrieval.news_vector", None),
        (retrieval, "recommend", "retrieval.recommend", None),
        (retrieval, "similar_news", "retrieval.similar_news", None),
        (glove, "load_embeddings", "glove.load_embeddings", None),
        (glove, "build_vocab", "glove.build_vocab", None),
        (glove, "build_cooccurrence", "glove.build_cooccurrence", on_cooccurrence),
        (glove, "save_embeddings_text", "glove.save_embeddings", None),
        (glove, "save_embeddings_binary", "glove.save_embeddings", None),
        (glove, "adagrad_sweep", "_kernels.adagrad_sweep", on_sweep),
        (metrics, "evaluate", "metrics.evaluate", None),
        (mind, "load_news", "mind.load_news", on_parse),
        (mind, "load_behaviors", "mind.load_behaviors", on_parse),
        (textprep, "clean_corpus", "textprep.clean_corpus", None),
        (textprep, "preprocess_corpus", "textprep.preprocess_corpus", None),
        (textprep, "load_tokenized", "textprep.load_tokenized", None),
        (textprep, "stem", "porter.stem", on_stem),
        (analytics, "category_distribution", "analytics.tables", None),
        (analytics, "word_frequencies", "analytics.tables", None),
        (analytics, "title_length_histogram", "analytics.tables", None),
        (manifest, "sha256_file", "manifest.sha256_file", on_hash),
    ]
    for owner, attr, name, on_call in wraps:
        tracer.wrap(owner, attr, name, on_call)


def metrics_from(tracer: Tracer, fixed_updates_per_s: float, overhead_s: float,
                 untraced_s: float) -> dict[str, float]:
    """Per-layer values, keyed by the names under ``per_layer`` in BENCHMARK.json."""
    t, c = tracer, tracer.counters
    stem_calls = t.calls("porter.stem")
    backward_calls = t.calls("autodiff.backward")
    sweep_s = t.seconds("_kernels.adagrad_sweep")
    values = {
        "model.encode_news_s": t.seconds("model.encode_news"),
        "model.encode_news_calls": t.calls("model.encode_news"),
        "model.encode_user_s": t.seconds("model.encode_user"),
        "model.encode_user_calls": t.calls("model.encode_user"),
        "model.sample_loss_s": t.seconds("model.sample_loss"),
        "model.train_model_self_s": t.self_seconds("model.train_model"),
        "autodiff.backward_s": t.seconds("autodiff.backward"),
        "autodiff.nodes_per_batch": c.get("autodiff.nodes", 0) / backward_calls if backward_calls else 0.0,
        "model.adam_step_s": t.seconds("model.Adam.step"),
        "model.build_samples_s": t.seconds("model.build_train_samples"),
        "model.samples": c.get("model.samples", 0),
        "retrieval.index_build_s": t.seconds("retrieval.CorpusIndex"),
        "retrieval.news_vector_calls": t.calls("retrieval.news_vector"),
        "retrieval.recommend_s": t.seconds("retrieval.recommend"),
        "retrieval.similar_s": t.seconds("retrieval.similar_news"),
        "model.score_impressions_s": t.seconds("model.score_impression_logs"),
        "model.load_s": t.seconds("model.load_model"),
        "glove.load_embeddings_s": t.seconds("glove.load_embeddings"),
        "metrics.evaluate_s": t.seconds("metrics.evaluate"),
        "mind.load_news_s": t.seconds("mind.load_news"),
        "mind.load_behaviors_s": t.seconds("mind.load_behaviors"),
        "mind.lines": c.get("mind.lines", 0),
        "mind.parse_errors": c.get("mind.parse_errors", 0),
        "textprep.clean_s": t.seconds("textprep.clean_corpus"),
        "textprep.preprocess_s": t.seconds("textprep.preprocess_corpus"),
        "textprep.preprocess_self_s": t.self_seconds("textprep.preprocess_corpus"),
        "textprep.load_tokenized_s": t.seconds("textprep.load_tokenized"),
        "porter.stem_calls": stem_calls,
        "porter.stem_s": t.seconds("porter.stem"),
        "porter.distinct_ratio": c.get("porter.distinct", 0) / stem_calls if stem_calls else 0.0,
        "glove.vocab_s": t.seconds("glove.build_vocab"),
        "glove.cooccurrence_s": t.seconds("glove.build_cooccurrence"),
        "glove.nnz": c.get("glove.nnz", 0),
        "glove.save_s": t.seconds("glove.save_embeddings"),
        "kernels.sweep_s": sweep_s,
        "kernels.updates_per_s": c.get("_kernels.updates", 0) / sweep_s if sweep_s else 0.0,
        "kernels.fixed_updates_per_s": fixed_updates_per_s,
        "analytics.tables_s": t.seconds("analytics.tables"),
        "manifest.sha256_s": t.seconds("manifest.sha256_file"),
        "manifest.bytes_hashed": c.get("manifest.bytes_hashed", 0),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s if untraced_s else 0.0,
    }
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}_s"] = t.seconds(f"cli.{cmd}")
        values[f"cli.{cmd}_self_s"] = t.self_seconds(f"cli.{cmd}")
    return values
