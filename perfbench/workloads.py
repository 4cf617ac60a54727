"""The three benchmark workloads: set-up, the operations they repeat, checks.

A workload's set-up writes its seeded inputs and runs whatever CLI steps
must precede the measured calls.  Its operations are CLI calls, each one
attempted operation; ``check`` returns ``None`` when the call's outputs
are right, else the reason they are not.  A run stops between cycles, so
every check that compares one cycle with an earlier one gets its pair.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from newsrec.mind import read_predictions

from corpus import CorpusFiles, CorpusSpec, write_corpus

AUC_BAR = 0.85  # the acceptance gate's bars
MRR_BAR = 0.55
TOP_N = 10


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[], str | None]
    items: int = 0  # units of work the op completes, for items_per_s


@dataclass
class Record:
    kind: str
    seconds: float
    items: int
    failure: str | None


@dataclass
class State:
    root: str
    corpus: CorpusFiles
    paths: dict[str, str] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _last_csv_value(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return float(rows[-1][1])


def _spread(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values), "max": values[-1],
            "mean": statistics.fmean(values)}


def _same_as_first(memo: dict, key: str, path: str) -> str | None:
    digest = _digest(path)
    first = memo.setdefault(key, digest)
    return None if digest == first else f"{os.path.basename(path)} differs from the first call"


def _evaluate_check(out_dir: str, need_mrr: bool, memo: dict) -> str | None:
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    memo["auc"], memo["mrr"] = report["auc"], report["mrr"]
    with open(os.path.join(out_dir, "prediction.txt"), encoding="utf-8") as fh:
        for impression, ranks in read_predictions(fh):
            if sorted(ranks) != list(range(1, len(ranks) + 1)):
                return f"prediction for impression {impression} is not a permutation"
    if not report["auc"] >= AUC_BAR:
        return f"auc {report['auc']:.4f} < {AUC_BAR}"
    if need_mrr and not report["mrr"] >= MRR_BAR:
        return f"mrr {report['mrr']:.4f} < {MRR_BAR}"
    return None


def _common(seed: int) -> list[str]:
    return ["--threads", "1", "--seed", str(seed)]


class Workload:
    name = ""
    cycle = 1  # operations per cycle; a run ends on a cycle boundary
    min_ops = 1
    trace_ops = 1  # operations a traced run replays, whole cycles
    spec: CorpusSpec

    def enough(self, records: list[Record]) -> bool:
        return len(records) >= self.min_ops

    def write_inputs(self, root: str, seed: int) -> State:
        corpus = write_corpus(os.path.join(root, "mind"), self.spec, seed)
        return State(root=root, corpus=corpus)

    def setup(self, root: str, seed: int, cli) -> State:
        return self.write_inputs(root, seed)

    def ops(self, state: State, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def report(self, records: list[Record], state: State) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def _prepare_and_glove(self, state: State, seed: int, cli, glove_epochs: int) -> None:
        prep = os.path.join(state.root, "prep")
        glove = os.path.join(state.root, "glove")
        cli(["prepare", "--news", state.corpus.news, "--behaviors", state.corpus.behaviors_train,
             "--out-dir", prep, *_common(seed)])
        state.facts["train-glove"] = cli([
            "train-glove", "--corpus", os.path.join(prep, "tokenized.tsv"), "--out-dir", glove,
            "--epochs", str(glove_epochs), *_common(seed)])
        state.paths["corpus"] = os.path.join(prep, "tokenized.tsv")
        state.paths["embeddings"] = os.path.join(glove, "embeddings.txt")


class Train(Workload):
    name = "train"
    cycle = 3  # two identical trainings, then one evaluation of the model they wrote
    min_ops = 3
    trace_ops = 3
    spec = CorpusSpec(n_news=500, roots_per_category=120, n_users=32,
                      impressions_per_user=2, test_fraction=0.5)
    # one batch of all 32 samples, so the graph (and peak memory) is the same for every seed
    epochs = 2
    batch_size = 32
    learning_rate = 0.005

    def setup(self, root, seed, cli):
        state = self.write_inputs(root, seed)
        self._prepare_and_glove(state, seed, cli, glove_epochs=2)
        return state

    def ops(self, state, seed):
        model_dir = os.path.join(state.root, "model")
        eval_dir = os.path.join(state.root, "eval")
        memo: dict = {}

        def train_check():
            loss = _last_csv_value(os.path.join(model_dir, "loss_trace.csv"))
            memo.setdefault("loss", loss)
            if not math.isfinite(loss):
                return f"final-epoch loss {loss} is not finite"
            return _same_as_first(memo, "model", os.path.join(model_dir, "model.bin"))

        train = Op("train-model", [
            "train-model", "--corpus", state.paths["corpus"],
            "--behaviors", state.corpus.behaviors_train, "--embeddings", state.paths["embeddings"],
            "--out-dir", model_dir, "--epochs", str(self.epochs),
            "--batch-size", str(self.batch_size), "--learning-rate", str(self.learning_rate),
            *_common(seed)], train_check, items=self.spec.n_users * self.epochs)
        evaluate = Op("evaluate", [
            "evaluate", "--corpus", state.paths["corpus"], "--behaviors", state.corpus.behaviors_test,
            "--embeddings", state.paths["embeddings"], "--model", os.path.join(model_dir, "model.bin"),
            "--out-dir", eval_dir, *_common(seed)], lambda: _evaluate_check(eval_dir, True, memo))
        state.facts["memo"] = memo
        while True:
            yield from (train, train, evaluate)

    def report(self, records, state):
        trains = [r for r in records if r.kind == "train-model"]
        walls = [r.seconds for r in trains]
        rate = sum(r.items for r in trains) / sum(walls)
        return {
            "items_per_s": (rate, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
            "op_p90_ms": (1e3 * _p90(walls), "ms"),
            "train.samples_per_s": (rate, "samples/s"),
            "train.loss": (state.facts["memo"].get("loss", math.nan), "nats"),
            "train.train_model_calls": (len(trains), "count"),
            "train.auc": (state.facts["memo"].get("auc", math.nan), "auc"),
            "train.mrr": (state.facts["memo"].get("mrr", math.nan), "mrr"),
        }


class Embed(Workload):
    name = "embed"
    cycle = 3
    min_ops = 6
    trace_ops = 6
    spec = CorpusSpec(n_news=3000, roots_per_category=300, n_users=200,
                      impressions_per_user=2)
    glove_epochs = 1

    def ops(self, state, seed):
        prep = os.path.join(state.root, "prep")
        glove = os.path.join(state.root, "glove")
        tables = os.path.join(state.root, "analytics")
        corpus_path = state.paths["corpus"] = os.path.join(prep, "tokenized.tsv")
        state.paths["embeddings"] = os.path.join(glove, "embeddings.txt")
        memo: dict = {}

        def prepare_check():
            with open(os.path.join(prep, "clean_report.json"), encoding="utf-8") as fh:
                kept = json.load(fh)["kept"]
            if kept != self.spec.n_news:
                return f"prepare kept {kept} of {self.spec.n_news} news"
            return _same_as_first(memo, "tokenized", corpus_path)

        def glove_check():
            cost = _last_csv_value(os.path.join(glove, "glove_trace.csv"))
            memo.setdefault("cost", cost)
            if not math.isfinite(cost):
                return f"GloVe cost {cost} is not finite"
            return _same_as_first(memo, "embeddings", os.path.join(glove, "embeddings.txt"))

        def analytics_check():
            with open(os.path.join(tables, "analytics.json"), encoding="utf-8") as fh:
                payload = json.load(fh)
            total = sum(payload["title_histogram"]["counts"].values())
            categories = sum(row["count"] for row in payload["categories"])
            if total != self.spec.n_news or categories != self.spec.n_news:
                return f"tables hold {total} titles and {categories} categorised news"
            return None

        chain = [
            Op("prepare", ["prepare", "--news", state.corpus.news,
                           "--behaviors", state.corpus.behaviors_train, "--out-dir", prep,
                           *_common(seed)], prepare_check, items=self.spec.n_news),
            Op("train-glove", ["train-glove", "--corpus", corpus_path, "--out-dir", glove,
                               "--epochs", str(self.glove_epochs), *_common(seed)], glove_check),
            Op("analytics", ["analytics", "--corpus", corpus_path, "--out-dir", tables,
                             *_common(seed)], analytics_check),
        ]
        state.facts["memo"] = memo
        while True:
            yield from chain

    def report(self, records, state):
        chains = [sum(r.seconds for r in records[i:i + self.cycle])
                  for i in range(0, len(records), self.cycle)]
        by_kind = {k: [r.seconds for r in records if r.kind == k]
                   for k in ("prepare", "train-glove", "analytics")}
        return {
            "items_per_s": (self.spec.n_news * len(chains) / sum(chains), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(chains), "ms"),
            "op_p90_ms": (1e3 * _p90(chains), "ms"),
            "embed.prepare_s": (statistics.median(by_kind["prepare"]), "s"),
            "embed.train_glove_s": (statistics.median(by_kind["train-glove"]), "s"),
            "embed.analytics_s": (statistics.median(by_kind["analytics"]), "s"),
            "embed.glove_cost": (state.facts["memo"].get("cost", math.nan), "cost"),
            "embed.chains": (len(chains), "count"),
        }


class Serve(Workload):
    name = "serve"
    min_queries = 100  # so that ten samples lie beyond the p90
    trace_ops = 51  # the first evaluate and ten queries of each kind
    spec = CorpusSpec(n_news=150, roots_per_category=60, n_users=60,
                      impressions_per_user=5)
    train_users = 20
    train_batch_size = 5
    train_epochs = 2
    train_learning_rate = 0.01
    # The same training seed for every workload seed, so the shuffle puts the
    # same picks (same length quantiles and categories) in each batch.  With
    # the workload seed the batches varied, and peak memory, which this
    # training sets, varied by up to 15% across seeds.
    train_seed = 0
    # the query mix is assumed, with no published traffic behind it: the five
    # query kinds take equal turns, and evaluate runs once every 50 queries
    evaluate_every = 50

    def setup(self, root, seed, cli):
        state = self.write_inputs(root, seed)
        self._prepare_and_glove(state, seed, cli, glove_epochs=5)
        # A brief training is part of set-up: one impression from each of
        # train_users users spread evenly over the history lengths, so the
        # training work is about the same for every seed.  The users take the
        # categories in turn: a category no trained user clicks is one the
        # model cannot rank.  Batches of five make eight Adam steps; a single
        # batch made two, too few to clear the AUC bar on every seed.
        short = os.path.join(state.root, "behaviors_short.tsv")
        with open(state.corpus.behaviors_train, encoding="utf-8") as src:
            lines = src.readlines()
        per_user = len(lines) // self.spec.n_users
        categories = state.corpus.user_categories
        n_cat = len(set(categories))
        by_length = sorted(range(self.spec.n_users), key=lambda u: state.corpus.history_lengths[u])
        step = self.spec.n_users / self.train_users
        picks: list[int] = []
        for i in range(self.train_users):
            # the user of the i-th category nearest the i-th evenly spaced length
            picks.append(min(
                (abs(pos - (i + 0.5) * step), u) for pos, u in enumerate(by_length)
                if categories[u] == i % n_cat and u not in picks)[1])
        with open(short, "w", encoding="utf-8") as dst:
            dst.writelines(lines[u * per_user] for u in picks)
        model_dir = os.path.join(state.root, "model")
        cli(["train-model", "--corpus", state.paths["corpus"], "--behaviors", short,
             "--embeddings", state.paths["embeddings"], "--out-dir", model_dir,
             "--epochs", str(self.train_epochs), "--batch-size", str(self.train_batch_size),
             "--learning-rate", str(self.train_learning_rate),
             *_common(self.train_seed)])
        state.paths["model"] = os.path.join(model_dir, "model.bin")
        return state

    def enough(self, records):
        return sum(r.kind == "query" for r in records) >= self.min_queries

    def ops(self, state, seed):
        from newsrec import glove, mind, textprep

        rng = np.random.default_rng(seed)
        stack = ["--corpus", state.paths["corpus"], "--embeddings", state.paths["embeddings"],
                 "--model", state.paths["model"]]
        lookup = glove.load_embeddings(state.paths["embeddings"])
        # query only items the corpus index holds: for a title with no
        # embeddable token, `similar` rightly exits 5
        items = [item for item in textprep.load_tokenized(state.paths["corpus"])
                 if _in_index(item, lookup)]
        stopwords = textprep.load_stopwords()
        histories: dict[str, tuple[str, ...]] = {}
        for log in mind.load_behaviors(state.corpus.behaviors_train)[0]:
            histories.setdefault(log.user_id, log.history)
        users = sorted(histories)
        out = os.path.join(state.root, "query")
        eval_dir = os.path.join(state.root, "eval")
        memo: dict = {}
        state.facts["memo"] = memo

        def free_text(item) -> str:
            # words of one headline, reordered, keeping at least one embeddable token
            words = item.raw_title.lower().split()
            rng.shuffle(words)
            text = " ".join(words[:5] + ["the", "latest"])
            ok = any(tok in lookup for tok in textprep.normalize_text(text, stopwords))
            return text if ok else item.raw_title

        def returned(name: str, key: str, exclude: str | None = None) -> Callable[[], str | None]:
            def check():
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    entries = json.load(fh)[key]
                ids = [e["news_id"] for e in entries]
                if len(ids) != TOP_N or len(set(ids)) != TOP_N:
                    return f"{name} holds {len(ids)} entries, {len(set(ids))} distinct, not {TOP_N}"
                if exclude in ids:
                    return f"{name} lists the query item {exclude}"
                return None
            return check

        evaluate = Op("evaluate", ["evaluate", *stack, "--behaviors", state.corpus.behaviors_test,
                                   "--out-dir", eval_dir, *_common(seed)],
                      lambda: _evaluate_check(eval_dir, False, memo))

        def query(command: str, args: list[str], check) -> Op:
            return Op("query", [command, *stack, "--out-dir", out, *args, "--top-n", str(TOP_N),
                                *_common(seed)], check, items=1)

        recommended = returned("recommendations.json", "entries")
        queries = 0
        while True:
            if queries % self.evaluate_every == 0:
                yield evaluate
            item = items[int(rng.integers(len(items)))]
            user = users[queries // 5 % len(users)]
            kind = queries % 5
            if kind == 0:
                yield query("recommend", ["--user", user,
                                          "--behaviors", state.corpus.behaviors_train], recommended)
            elif kind == 1:
                yield query("recommend", ["--history", ",".join(histories[user]),
                                          "--user-id", user], recommended)
            elif kind == 2:
                yield query("similar", ["--query", item.news_id],
                            returned("similar.json", "neighbors", exclude=item.news_id))
            elif kind == 3:
                yield query("similar", ["--query", item.raw_title],
                            returned("similar.json", "neighbors", exclude=item.news_id))
            else:
                yield query("similar", ["--query", free_text(item)],
                            returned("similar.json", "neighbors"))
            queries += 1

    def report(self, records, state):
        walls = [r.seconds for r in records if r.kind == "query"]
        evals = [r.seconds for r in records if r.kind == "evaluate"]
        p50, p90 = statistics.median(walls), _p90(walls)
        return {
            "items_per_s": (len(walls) / sum(walls), "1/s"),
            "op_p50_ms": (1e3 * p50, "ms"),
            "op_p90_ms": (1e3 * p90, "ms"),
            "serve.evaluate_s": (statistics.median(evals), "s"),
            "serve.query_p50_ms": (1e3 * p50, "ms"),
            "serve.query_p90_ms": (1e3 * p90, "ms"),
            "serve.queries": (len(walls), "count"),
            "serve.evaluates": (len(evals), "count"),
            "serve.auc": (state.facts["memo"].get("auc", math.nan), "auc"),
        }


def _in_index(item, lookup) -> bool:
    """Whether the retrieval index can encode the item: a known token in its title."""
    from newsrec.model import ModelConfig

    return any(tok in lookup for tok in item.title_tokens[:ModelConfig().max_title_tokens])


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


WORKLOADS = {w.name: w for w in (Train(), Embed(), Serve())}


def input_properties(workload: Workload, state: State) -> dict:
    """Input facts that decide which optimisations can show on this workload."""
    from newsrec import glove, textprep
    from newsrec.model import ModelConfig

    corpus = textprep.load_tokenized(state.paths["corpus"])
    stopwords = textprep.load_stopwords()
    stem_inputs = [tok for item in corpus for text in (item.raw_title, item.raw_abstract)
                   for tok in textprep.remove_stopwords(textprep.tokenize(text), stopwords)]
    lookup = glove.load_embeddings(state.paths["embeddings"])
    pairs = re.search(r"(\d+) tokens, (\d+) pairs", state.facts.get("train-glove", ""))
    histories = state.corpus.history_lengths
    max_history = ModelConfig().max_history
    props = {
        "news": len(corpus),
        "raw_title_words": _spread([len(item.raw_title.split()) for item in corpus]),
        "raw_abstract_words": _spread([len(item.raw_abstract.split()) for item in corpus]),
        "title_tokens": _spread([len(item.title_tokens) for item in corpus]),
        "history_clicks": _spread(histories),
        "history_at_max_share": sum(n >= max_history for n in histories) / len(histories),
        "candidates_per_impression": _spread(state.corpus.candidates),
        "stem_inputs": len(stem_inputs),
        "stem_distinct_ratio": len(set(stem_inputs)) / len(stem_inputs),
        "vocabulary": len(lookup),
        "glove_nnz": int(pairs.group(2)) if pairs else None,
    }
    if workload.name == "serve":
        props["corpus_index"] = sum(_in_index(item, lookup) for item in corpus)
    return props
