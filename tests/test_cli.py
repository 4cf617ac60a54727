"""End-to-end command behavior: artifacts, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

import newsrec.cli as cli
import newsrec.glove as gl
import newsrec.mind as mind

GLOVE_FLAGS = ["--dim", "12", "--window", "4", "--x-max", "20", "--min-count", "1",
               "--epochs", "10", "--seed", "3"]
MODEL_FLAGS = ["--heads", "2", "--d-head", "4", "--d-attn", "8",
               "--max-title-tokens", "6", "--max-history", "8",
               "--learning-rate", "0.05", "--epochs", "4", "--batch-size", "16",
               "--seed", "5"]


def run_pipeline(fixture, out_root):
    """prepare -> train-glove -> train-model -> evaluate, returning paths."""
    paths = {
        "prep": os.path.join(out_root, "prep"),
        "glove": os.path.join(out_root, "glove"),
        "model": os.path.join(out_root, "model"),
        "eval": os.path.join(out_root, "eval"),
    }
    assert cli.main(["prepare", "--news", fixture.news,
                     "--behaviors", fixture.behaviors_train,
                     "--out-dir", paths["prep"]]) == 0
    corpus = os.path.join(paths["prep"], "tokenized.tsv")
    assert cli.main(["train-glove", "--corpus", corpus,
                     "--out-dir", paths["glove"], *GLOVE_FLAGS]) == 0
    embeddings = os.path.join(paths["glove"], "embeddings.txt")
    assert cli.main(["train-model", "--corpus", corpus,
                     "--behaviors", fixture.behaviors_train,
                     "--embeddings", embeddings,
                     "--out-dir", paths["model"], *MODEL_FLAGS]) == 0
    model = os.path.join(paths["model"], "model.bin")
    assert cli.main(["evaluate", "--corpus", corpus,
                     "--behaviors", fixture.behaviors_test,
                     "--embeddings", embeddings, "--model", model,
                     "--out-dir", paths["eval"]]) == 0
    paths["corpus"] = corpus
    paths["embeddings"] = embeddings
    paths["model_bin"] = model
    return paths


@pytest.fixture(scope="session")
def pipeline(fixture_dir, tmp_path_factory):
    return run_pipeline(fixture_dir, str(tmp_path_factory.mktemp("pipeline")))


class TestPrepare:
    def test_outputs_exist_with_hand_known_counts(self, pipeline, fixture_dir):
        report = json.loads(open(os.path.join(pipeline["prep"], "clean_report.json")).read())
        assert report["kept"] == 60
        assert report["removed_duplicates"] == 0
        with open(pipeline["corpus"]) as fh:
            assert sum(1 for _ in fh) == 60

    def test_missing_behaviors_file_exits_3(self, fixture_dir, tmp_path, capsys):
        code = cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", str(tmp_path / "absent.tsv"),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "absent.tsv" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path, pipeline):
        out = str(tmp_path / "again")
        assert cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", out]) == 0
        with open(os.path.join(out, "tokenized.tsv"), "rb") as fh:
            again = fh.read()
        with open(pipeline["corpus"], "rb") as fh:
            first = fh.read()
        assert again == first


class TestConfigHandling:
    def test_unknown_config_field_exits_2(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"glove": {"dim": 8, "wrongname": 1}}))
        code = cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", str(tmp_path / "out"),
                         "--config", str(cfg)])
        assert code == 2
        assert "wrongname" in capsys.readouterr().err

    def test_invalid_value_exits_2_without_partial_outputs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "glove-bad"
        code = cli.main(["train-glove", "--corpus", pipeline["corpus"],
                         "--out-dir", str(out), "--dim", "0"])
        assert code == 2
        capsys.readouterr()
        assert not (out / "embeddings.txt").exists()

    def test_config_file_supplies_trainer_settings(self, pipeline, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "glove": {"dim": 12, "window": 4, "x_max": 20.0, "min_count": 1,
                      "epochs": 10, "seed": 3},
        }))
        out = str(tmp_path / "glove-cfg")
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"],
                         "--out-dir", out, "--config", str(cfg)]) == 0
        with open(os.path.join(out, "embeddings.txt"), "rb") as fh:
            from_cfg = fh.read()
        with open(pipeline["embeddings"], "rb") as fh:
            from_flags = fh.read()
        assert from_cfg == from_flags

    @pytest.mark.parametrize("section, field, value", [
        ("model", "heads", 2.0), ("glove", "dim", 2.5), ("model", "epochs", True),
        ("model", "max_history", "8"), ("run", "threads", 1.0),
    ])
    def test_non_integer_int_field_exits_2_without_outputs(self, pipeline, fixture_dir, tmp_path,
                                                           capsys, section, field, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {field: value}}))
        out = tmp_path / "out"
        code = cli.main(["train-model", "--corpus", pipeline["corpus"],
                         "--behaviors", fixture_dir.behaviors_train,
                         "--embeddings", pipeline["embeddings"],
                         "--out-dir", str(out), "--config", str(cfg)])
        assert code == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_float_fields_accept_json_integers(self, pipeline, tmp_path):
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({"glove": {"x_max": 20, "learning_rate": 1, "alpha": 1}}))
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"], "--epochs", "0",
                         "--out-dir", str(tmp_path / "out"), "--config", str(cfg)]) == 0


class TestCorruptInputs:
    """A corrupt artifact ends in a documented exit code naming it, never in exit 1."""

    def similar(self, pipeline, tmp_path, corpus=None, embeddings=None):
        return cli.main(["similar", "--corpus", corpus or pipeline["corpus"],
                         "--embeddings", embeddings or pipeline["embeddings"],
                         "--model", pipeline["model_bin"], "--query", "N1",
                         "--top-n", "2", "--out-dir", str(tmp_path / "sim")])

    def test_tokenized_corpus_cut_at_every_byte(self, pipeline, tmp_path, capsys):
        with open(pipeline["corpus"], encoding="utf-8") as fh:
            first, second = fh.readline(), fh.readline()
        cols = first.split("\t")
        cols[3] += " café"  # a two-byte character, so some cuts split it
        blob = ("\t".join(cols) + second).encode("utf-8")
        cut = tmp_path / "tokenized.tsv"
        codes = set()
        for offset in range(len(blob) + 1):
            cut.write_bytes(blob[:offset])
            code = self.similar(pipeline, tmp_path, corpus=str(cut))
            err = capsys.readouterr().err
            assert code in (0, 3, 5), (offset, err)
            if code == 3:
                assert str(cut) in err
            codes.add(code)
        assert codes == {0, 3, 5}

    def test_malformed_tokenized_line_names_path_and_line(self, pipeline, tmp_path, capsys):
        with open(pipeline["corpus"], encoding="utf-8") as fh:
            lines = fh.readlines()[:3]
        bad = tmp_path / "tokenized.tsv"
        bad.write_text(lines[0] + lines[1] + "N999\tonly three\tcolumns\n", encoding="utf-8")
        assert self.similar(pipeline, tmp_path, corpus=str(bad)) == 3
        assert f"{bad}:3: expected 7 columns" in capsys.readouterr().err

    def test_non_numeric_embedding_component_exits_2(self, pipeline, tmp_path, capsys):
        with open(pipeline["embeddings"], encoding="utf-8") as fh:
            lines = fh.readlines()
        parts = lines[2].split(" ")
        parts[3] = "abc"
        lines[2] = " ".join(parts)
        bad = tmp_path / "embeddings.txt"
        bad.write_text("".join(lines), encoding="utf-8")
        assert self.similar(pipeline, tmp_path, embeddings=str(bad)) == 2
        assert f"{bad}:3: embedding component is not a number" in capsys.readouterr().err
        bad.write_bytes(b"\xff" + "".join(lines).encode("utf-8"))
        assert self.similar(pipeline, tmp_path, embeddings=str(bad)) == 2
        assert f"{bad} is not valid UTF-8" in capsys.readouterr().err


class TestTrainGlove:
    def test_zero_epochs_equals_seeded_initialization(self, pipeline, tmp_path):
        out = str(tmp_path / "glove0")
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"],
                         "--out-dir", out, "--dim", "12", "--window", "4",
                         "--min-count", "1", "--epochs", "0", "--seed", "3"]) == 0
        lookup = gl.load_embeddings(os.path.join(out, "embeddings.txt"))
        table = gl.init_table(len(lookup.tokens), 12, seed=3)
        want = (table.W + table.Wt).astype(np.float32).astype(np.float64)
        assert np.array_equal(lookup.matrix, want)
        with open(os.path.join(out, "glove_trace.csv")) as fh:
            assert fh.read() == "epoch,cost\n"

    def test_binary_format_round_trips(self, pipeline, tmp_path):
        out = str(tmp_path / "glovebin")
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"],
                         "--out-dir", out, "--format", "binary", *GLOVE_FLAGS]) == 0
        binary = gl.load_embeddings(os.path.join(out, "embeddings.bin"))
        text = gl.load_embeddings(pipeline["embeddings"])
        assert binary.tokens == text.tokens
        assert np.array_equal(binary.matrix, text.matrix)

    def test_manifest_records_digests_and_backend(self, pipeline):
        manifest = json.loads(open(os.path.join(
            pipeline["glove"], "manifest_train_glove.json")).read())
        assert manifest["command"] == "train-glove"
        assert manifest["config"]["kernel_backend"] in ("numba", "numpy")
        assert any(name.endswith("tokenized.tsv") for name in manifest["inputs"])
        assert any(name.endswith("embeddings.txt") for name in manifest["outputs"])
        for digest in manifest["outputs"].values():
            assert len(digest) == 64


class TestEvaluate:
    def test_planted_fixture_is_ranked_perfectly(self, pipeline):
        metrics = json.loads(open(os.path.join(pipeline["eval"], "metrics.json")).read())
        assert metrics["auc"] == 1.0
        assert metrics["mrr"] == 1.0
        assert metrics["auc_percent"] == 100.0
        assert metrics["n_skipped"] == 0

    def test_prediction_file_is_valid_and_ordered(self, pipeline, fixture_dir):
        with open(os.path.join(pipeline["eval"], "prediction.txt")) as fh:
            preds = mind.read_predictions(fh)
        logs, _ = mind.load_behaviors(fixture_dir.behaviors_test)
        assert len(preds) == len(logs)
        ids = [int(i) for i, _ in preds]
        assert ids == sorted(ids)
        sizes = {log.impression_id: len(log.candidates) for log in logs}
        for impression_id, ranks in preds:
            assert sorted(ranks) == list(range(1, sizes[impression_id] + 1))


class TestQueries:
    def test_recommend_by_user_prefers_their_category(self, pipeline, fixture_dir, capsys):
        out = str(os.path.join(pipeline["eval"], "..", "rec"))
        assert cli.main(["recommend", "--corpus", pipeline["corpus"],
                         "--embeddings", pipeline["embeddings"],
                         "--model", pipeline["model_bin"],
                         "--behaviors", fixture_dir.behaviors_train,
                         "--user", "U1", "--top-n", "5",
                         "--out-dir", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("===== Recommended News : =====")
        payload = json.loads(open(os.path.join(out, "recommendations.json")).read())
        assert payload["user_id"] == "U1"
        assert len(payload["entries"]) == 5
        news, _ = mind.load_news(fixture_dir.news)
        cat = {n.news_id: n.category for n in news}
        logs, _ = mind.load_behaviors(fixture_dir.behaviors_train)
        planted = cat[next(log for log in logs if log.user_id == "U1").clicked()[0]]
        got = [cat[e["news_id"]] for e in payload["entries"]]
        assert sum(c == planted for c in got) >= 4

    def test_recommend_requires_exactly_one_user_source(self, pipeline, tmp_path, capsys):
        code = cli.main(["recommend", "--corpus", pipeline["corpus"],
                         "--embeddings", pipeline["embeddings"],
                         "--model", pipeline["model_bin"],
                         "--out-dir", str(tmp_path / "rec")])
        assert code == 2
        capsys.readouterr()

    def test_similar_renders_neighbors_with_distances(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "sim")
        assert cli.main(["similar", "--corpus", pipeline["corpus"],
                         "--embeddings", pipeline["embeddings"],
                         "--model", pipeline["model_bin"],
                         "--query", "N1", "--top-n", "4",
                         "--out-dir", out]) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert lines[0] == "===== Recommended News : ====="
        assert len(lines) == 6
        payload = json.loads(open(os.path.join(out, "similar.json")).read())
        assert len(payload["neighbors"]) == 4
        dists = [nb["distance"] for nb in payload["neighbors"]]
        assert dists == sorted(dists)


class TestAnalyticsCommand:
    def test_writes_all_tables(self, pipeline, tmp_path):
        out = str(tmp_path / "ana")
        assert cli.main(["analytics", "--corpus", pipeline["corpus"],
                         "--top-k", "5", "--out-dir", out]) == 0
        files = sorted(os.listdir(out))
        assert "categories.csv" in files
        assert "title_hist.csv" in files
        assert "analytics.json" in files
        wordfreqs = [f for f in files if f.startswith("wordfreq_")]
        assert len(wordfreqs) == 3
        with open(os.path.join(out, "categories.csv")) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "category,subcategory,count"
        assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == 60


class TestStats:
    def test_counters_match_fixture_shape(self, fixture_dir, capsys):
        assert cli.main(["stats", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["news"] == 60
        assert payload["users"] == 12
        assert payload["impressions"] == 96
        assert payload["title_length_mean"] > 4


class TestDeterminism:
    def test_pipeline_rerun_matches_byte_for_byte(self, fixture_dir, pipeline, tmp_path):
        again = run_pipeline(fixture_dir, str(tmp_path / "again"))
        pairs = [
            (pipeline["embeddings"], again["embeddings"]),
            (pipeline["model_bin"], again["model_bin"]),
            (os.path.join(pipeline["glove"], "glove_trace.csv"),
             os.path.join(again["glove"], "glove_trace.csv")),
            (os.path.join(pipeline["model"], "loss_trace.csv"),
             os.path.join(again["model"], "loss_trace.csv")),
            (os.path.join(pipeline["eval"], "metrics.json"),
             os.path.join(again["eval"], "metrics.json")),
            (os.path.join(pipeline["eval"], "prediction.txt"),
             os.path.join(again["eval"], "prediction.txt")),
        ]
        for first, second in pairs:
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read(), first
