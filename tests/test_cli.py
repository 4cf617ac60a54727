"""End-to-end command behavior: artifacts, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import os
import shutil
import stat
import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import newsrec.cli as cli
import newsrec.glove as gl
import newsrec.mind as mind
import newsrec.model as mdl
import newsrec.retrieval as ret
import newsrec.textprep as tp
from newsrec.config import (GloveConfig, ModelConfig, Range, RunSettings, apply_overrides, check,
                            load_config)

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

    @pytest.mark.parametrize("section, value", [("glove", 5), ("model", None), ("run", [1])])
    def test_non_object_config_section_exits_2(self, fixture_dir, tmp_path, capsys,
                                                section, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: value}))
        out = tmp_path / "out"
        code = cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", str(out), "--config", str(cfg)])
        assert code == 2
        assert f"config section {section!r} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

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

    def test_section_seed_wins_over_run_seed_of_the_same_file(self, pipeline, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "run": {"seed": 9},
            "glove": {"dim": 12, "window": 4, "x_max": 20.0, "min_count": 1,
                      "epochs": 10, "seed": 3},
        }))
        out = tmp_path / "glove-cfg"
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"],
                         "--out-dir", str(out), "--config", str(cfg)]) == 0
        assert (out / "embeddings.txt").read_bytes() == open(pipeline["embeddings"], "rb").read()
        config = json.loads((out / "manifest_train_glove.json").read_text())["config"]
        assert (config["glove"]["seed"], config["model"]["seed"], config["run"]["seed"]) == (3, 9, 9)

    @pytest.mark.parametrize("sections, flag, want", [
        ({"run": {"seed": 5}, "glove": {"seed": 3}}, None, (3, 5)),
        ({"run": {"seed": 5}, "model": {"seed": 4}}, None, (5, 4)),
        ({"run": {"seed": 5}}, None, (5, 5)),
        ({"glove": {"seed": 3}, "model": {"seed": 4}}, None, (3, 4)),
        ({"run": {"seed": 5}, "glove": {"seed": 3}, "model": {"seed": 4}}, 7, (7, 7)),
        ({}, 7, (7, 7)),
    ])
    def test_seed_precedence(self, tmp_path, sections, flag, want):
        cfg = tmp_path / "seeds.json"
        cfg.write_text(json.dumps(sections))
        resolved = apply_overrides(load_config(str(cfg)), {}, {}, {"seed": flag})
        assert (resolved.glove.seed, resolved.model.seed) == want

    @pytest.mark.parametrize("section, field, value", [
        ("model", "heads", 2.0), ("glove", "dim", 2.5), ("model", "epochs", True),
        ("model", "max_history", "8"), ("run", "threads", 1.0),
        ("glove", "dim", 10**20), ("model", "heads", 10**20), ("model", "d_attn", 10**20),
        ("model", "negatives", 10**20), ("run", "threads", -2**63 - 1),
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

    def trainer_inputs(self, command, pipeline, fixture_dir):
        inputs = ["--corpus", pipeline["corpus"]]
        if command == "train-model":
            inputs += ["--behaviors", fixture_dir.behaviors_train,
                       "--embeddings", pipeline["embeddings"]]
        return inputs

    @pytest.mark.parametrize("command", ["train-glove", "train-model"])
    def test_negative_seed_flag_exits_2_without_outputs(self, pipeline, fixture_dir, tmp_path,
                                                        capsys, command):
        out = tmp_path / "out"
        inputs = self.trainer_inputs(command, pipeline, fixture_dir)
        assert cli.main([command, *inputs, "--out-dir", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["prepare", "evaluate"])
    def test_out_dir_at_or_under_a_file_exits_2_without_outputs(self, pipeline, fixture_dir,
                                                                tmp_path, capsys, command, below):
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        inputs = (["--news", fixture_dir.news, "--behaviors", fixture_dir.behaviors_train]
                  if command == "prepare" else
                  ["--corpus", pipeline["corpus"], "--behaviors", fixture_dir.behaviors_test,
                   "--embeddings", pipeline["embeddings"], "--model", pipeline["model_bin"]])
        assert cli.main([command, *inputs, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"--out-dir {out} cannot be made a directory: "
                f"{blocker} exists and is not one") in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("section", ["glove", "model", "run"])
    def test_negative_seed_in_config_exits_2_without_outputs(self, pipeline, fixture_dir,
                                                             tmp_path, capsys, section):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({section: {"seed": -1}}))
        out = tmp_path / "out"
        code = cli.main(["train-model", "--corpus", pipeline["corpus"],
                         "--behaviors", fixture_dir.behaviors_train,
                         "--embeddings", pipeline["embeddings"],
                         "--out-dir", str(out), "--config", str(cfg)])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("command, field, value", [
        ("train-glove", "x_max", float("inf")), ("train-glove", "learning_rate", float("nan")),
        ("train-glove", "alpha", float("-inf")), ("train-glove", "x_max", 10 ** 400),
        ("train-model", "learning_rate", float("nan")),
        ("train-model", "learning_rate", float("-inf")),
    ], ids=["x_max_inf", "glove_lr_nan", "alpha_minus_inf", "x_max_huge_int", "model_lr_nan",
            "model_lr_minus_inf"])
    def test_non_finite_float_setting_exits_2_without_outputs(
            self, pipeline, fixture_dir, tmp_path, capsys, command, field, value, route):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command[len("train-"):]: {field: value}}))
        setting = ([f"--{field.replace('_', '-')}={value}"] if route == "flag"
                   else ["--config", str(cfg)])
        out = tmp_path / "out"
        inputs = self.trainer_inputs(command, pipeline, fixture_dir)
        assert cli.main([command, *inputs, "--out-dir", str(out), *setting]) == 2
        assert f"{field} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    # within int64, but the element count times 8 bytes passes numpy's index
    # range, so numpy refuses without asking for memory
    @pytest.mark.parametrize("command, flag, value, message", [
        ("train-glove", "--dim", 10**17, "dim=100000000000000000 for"),
        ("train-model", "--heads", 10**18, "heads=1000000000000000000, d_head=16 and d_attn=200"),
        ("train-model", "--d-attn", 10**18, "d_attn=1000000000000000000 size a model"),
        ("train-model", "--negatives", 2 * 10**18, "negatives=2000000000000000000 is more"),
    ], ids=["glove_dim", "heads", "d_attn", "negatives"])
    @pytest.mark.filterwarnings("ignore::newsrec.errors.InsufficientNegatives")
    def test_size_numpy_cannot_allocate_exits_2_without_outputs(
            self, pipeline, fixture_dir, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        inputs = self.trainer_inputs(command, pipeline, fixture_dir)
        assert cli.main([command, *inputs, "--out-dir", str(out), "--epochs", "0",
                         flag, str(value)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blob, message", [
        (b'{"run": {"stopwords": ["a"]}}', "stopwords must be a string, got ['a']"),
        (b'{"run": {"stopwords": 0}}', "stopwords must be a string, got 0"),
        (b'{"glove": {"dim": "\xff"}}', "is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000, "is not valid JSON: maximum recursion depth exceeded"),
    ], ids=["stopwords_list", "stopwords_int", "not_utf8", "nested_too_deep"])
    def test_bad_config_file_exits_2_without_outputs(self, fixture_dir, tmp_path, capsys,
                                                     blob, message):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(blob)
        out = tmp_path / "out"
        code = cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", str(out), "--config", str(cfg)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_stopword_lexicon_exits_3_without_outputs(self, fixture_dir, tmp_path,
                                                               capsys):
        lexicon = tmp_path / "stop.txt"
        lexicon.write_bytes(b"the\n\xffa\n")
        out = tmp_path / "out"
        code = cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", str(out), "--stopwords", str(lexicon)])
        assert code == 3
        assert f"{lexicon} is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_float_fields_accept_json_integers(self, pipeline, tmp_path):
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({"glove": {"x_max": 20, "learning_rate": 1, "alpha": 1}}))
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"], "--epochs", "0",
                         "--out-dir", str(tmp_path / "out"), "--config", str(cfg)]) == 0


SECTIONS = {"glove": GloveConfig, "model": ModelConfig, "run": RunSettings}


def range_edges(field):
    """(value at an edge of ``field``'s declared range, next value outside
    it) for each end of the range."""
    bounds = field.metadata["range"]
    if field.type == "float":
        step = lambda value, up: math.nextafter(value, math.inf if up else -math.inf)
    else:
        step = lambda value, up: value + 1 if up else value - 1
    edges = [(step(bounds.low, True), bounds.low) if bounds.strict
             else (bounds.low, step(bounds.low, False))]
    if bounds.high is not None:
        edges.append((bounds.high, step(bounds.high, True)))
    return edges


RANGE_EDGES = [(section, f.name, inside, outside)
               for section, cls in SECTIONS.items() for f in fields(cls)
               if "range" in f.metadata for inside, outside in range_edges(f)]


class TestSettings:
    """Each setting's type and range, declared once in ``config``, is what
    the commands accept, and what README's settings table lists."""

    def prepare(self, fixture_dir, tmp_path, settings):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps(settings))
        return cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])

    @pytest.mark.parametrize("section, name, inside, outside", RANGE_EDGES,
                             ids=[f"{s}.{n}={i!r}" for s, n, i, _ in RANGE_EDGES])
    def test_edge_of_range_is_accepted_and_next_value_exits_2(
            self, fixture_dir, tmp_path, capsys, section, name, inside, outside):
        (tmp_path / "inside").mkdir()
        assert self.prepare(fixture_dir, tmp_path / "inside", {section: {name: inside}}) == 0
        capsys.readouterr()
        assert self.prepare(fixture_dir, tmp_path, {section: {name: outside}}) == 2
        assert f"error: {name} must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_field_has_a_known_type_and_every_number_a_range(self):
        for cls in SECTIONS.values():
            check(cls())
            for f in fields(cls):
                kind, *rest = f.type.split(" | ")
                assert kind in ("int", "float", "str") and rest in ([], ["None"]), f.name
                assert isinstance(f.metadata.get("range"), Range) == (kind != "str"), f.name

    def test_bad_type_is_named_before_an_earlier_bad_range(self, fixture_dir, tmp_path, capsys):
        assert self.prepare(fixture_dir, tmp_path,
                            {"model": {"heads": 0, "batch_size": "64"}}) == 2
        err = capsys.readouterr().err
        assert "batch_size must be an integer in the int64 range, got '64'" in err
        assert not (tmp_path / "out").exists()

    def test_readme_settings_table_matches_the_declarations(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text[text.index("\n## Settings\n"):]
        section = section[:section.index("\n## ", 1)]
        rows = [[cell.strip() for cell in line.strip("|").split("|")][:4]
                for line in section.splitlines() if line.startswith("| `")]
        declared = [[f"`{name}.{f.name}`", f"`--{f.name.replace('_', '-')}`",
                     f"`{json.dumps(f.default)}`", str(f.metadata.get("range", ""))]
                    for name, cls in SECTIONS.items() for f in fields(cls)]
        assert rows == declared


class TestByteOrderMark:
    """A UTF-8 byte-order mark before any text input changes no output."""

    def command(self, kind, pipeline, fixture_dir, tmp_path):
        """(command, input flags, the flag whose file gets the mark)."""
        evaluate = {"--corpus": pipeline["corpus"], "--behaviors": fixture_dir.behaviors_test,
                    "--embeddings": pipeline["embeddings"], "--model": pipeline["model_bin"]}
        prepare = {"--news": fixture_dir.news, "--behaviors": fixture_dir.behaviors_train}
        if kind == "stopwords":
            with open(fixture_dir.news, encoding="utf-8") as fh:
                first_word = fh.readline().split("\t")[3].split()[0].lower()
            lexicon = tmp_path / "stop.txt"
            lexicon.write_text(f"{first_word}\nthe\n", encoding="utf-8")
            return "prepare", dict(prepare, **{"--stopwords": str(lexicon)}), "--stopwords"
        if kind == "config":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"glove": {"dim": 4, "min_count": 1, "epochs": 1}}))
            return "train-glove", {"--corpus": pipeline["corpus"], "--config": str(cfg)}, "--config"
        flag = {"news": "--news", "behaviors": "--behaviors", "tokenized": "--corpus",
                "embeddings": "--embeddings"}[kind]
        return ("prepare", prepare, flag) if kind == "news" else ("evaluate", evaluate, flag)

    @pytest.mark.parametrize("kind", ["news", "behaviors", "tokenized", "embeddings",
                                      "stopwords", "config"])
    def test_marked_input_gives_the_plain_inputs_outputs(self, kind, pipeline, fixture_dir,
                                                          tmp_path, capsys):
        command, inputs, flag = self.command(kind, pipeline, fixture_dir, tmp_path)
        marked = tmp_path / ("marked_" + os.path.basename(inputs[flag]))
        with open(inputs[flag], "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        outputs = []
        for path in (inputs[flag], str(marked)):
            out = tmp_path / f"out{len(outputs)}"
            argv = [command, *(arg for pair in dict(inputs, **{flag: path}).items()
                               for arg in pair), "--out-dir", str(out)]
            assert cli.main(argv) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if not p.name.startswith("manifest_")})
        capsys.readouterr()
        assert outputs[0] and outputs[0] == outputs[1]

    def test_second_mark_before_news_drops_the_first_record(self, fixture_dir, tmp_path,
                                                            capsys):
        """A second mark would stay in the first news id, which every reader
        of tokenized.tsv then drops: prepare drops the record and counts it."""
        news = tmp_path / "news.tsv"
        with open(fixture_dir.news, "rb") as fh:
            plain = fh.read()
        news.write_bytes(b"\xef\xbb\xbf" * 2 + plain)
        out = tmp_path / "prep"
        assert cli.main(["prepare", "--news", str(news), "--behaviors",
                         fixture_dir.behaviors_train, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        corpus = out / "tokenized.tsv"
        written = [line.split("\t", 1)[0] for line in
                   corpus.read_bytes().decode("utf-8").split("\n") if line]
        first_id = plain.split(b"\t", 1)[0].decode()
        assert first_id not in written and not written[0].startswith("\ufeff")
        assert [item.news_id for item in tp.load_tokenized(str(corpus))] == written
        report = json.loads((out / "clean_report.json").read_text(encoding="utf-8"))
        assert report["parse_errors_news"] == {"ByteOrderMarkInNewsId": 1}


class TestLineSeparatorsInText:
    """A raw title may hold any line separator but ``\\n``: ``\\r`` among them."""

    SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]

    def test_every_command_runs_and_the_raw_title_keeps_it(self, fixture_dir, tmp_path, capsys):
        with open(fixture_dir.news, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        titles = {}
        for i, sep in enumerate(self.SEPARATORS):
            fields = lines[i].split("\t")
            fields[3] = fields[3].replace(" ", sep, 1)
            titles[fields[0]] = fields[3]
            lines[i] = "\t".join(fields)
        news = tmp_path / "news.tsv"
        news.write_bytes("\n".join(lines).encode("utf-8"))
        fixture = argparse.Namespace(news=str(news), behaviors_train=fixture_dir.behaviors_train,
                                     behaviors_test=fixture_dir.behaviors_test)
        paths = run_pipeline(fixture, str(tmp_path))
        first = next(iter(titles))
        for argv in (["analytics", "--corpus", paths["corpus"]],
                     ["similar", "--corpus", paths["corpus"], "--embeddings", paths["embeddings"],
                      "--model", paths["model_bin"], "--query", first]):
            assert cli.main([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0
        capsys.readouterr()
        raw = {item.news_id: item.raw_title for item in tp.load_tokenized(paths["corpus"])}
        assert {nid: raw[nid] for nid in titles} == titles
        assert "\r" in titles[first]


class TestCorruptInputs:
    """A corrupt artifact ends in a documented exit code naming it, never in exit 1."""

    def similar(self, pipeline, tmp_path, corpus=None, embeddings=None, model=None):
        return cli.main(["similar", "--corpus", corpus or pipeline["corpus"],
                         "--embeddings", embeddings or pipeline["embeddings"],
                         "--model", model or pipeline["model_bin"], "--query", "N1",
                         "--top-n", "2", "--out-dir", str(tmp_path / "sim")])

    @pytest.fixture
    def small_binary(self, pipeline, tmp_path):
        """A 2-dim embeddings.bin over N1's title tokens, and an untrained model that fits it."""
        with open(pipeline["corpus"], encoding="utf-8") as fh:
            tokens = fh.readline().split("\t")[3].split()
        assert tokens
        lookup = gl.EmbeddingLookup.from_rows(
            tokens, np.random.default_rng(0).normal(size=(len(tokens), 2)))
        emb = str(tmp_path / "embeddings.bin")
        gl.save_embeddings_binary(emb, lookup)
        model = str(tmp_path / "model.bin")
        mdl.save_model(model, mdl.init_params(2, mdl.ModelConfig(heads=1, d_head=2, d_attn=2)))
        return emb, model

    def test_embeddings_binary_cut_at_every_byte(self, pipeline, tmp_path, capsys, small_binary):
        emb, model = small_binary
        with open(emb, "rb") as fh:
            blob = fh.read()
        codes = set()
        for offset in range(len(blob) + 1):
            with open(emb, "wb") as fh:
                fh.write(blob[:offset])
            code = self.similar(pipeline, tmp_path, embeddings=emb, model=model)
            err = capsys.readouterr().err
            assert code in (0, 2, 5), (offset, err)
            if code:
                assert emb in err, (offset, err)
            codes.add(code)
        assert codes == {0, 2, 5}

    @pytest.mark.parametrize("case", ["zero_rows", "zero_dim", "ragged_payload",
                                      "trailing_row", "tokens_not_a_list", "header_not_utf8",
                                      "header_not_an_object", "repeated_token",
                                      "older_format"])
    def test_garbled_embeddings_binary_exits_2_or_5(self, pipeline, tmp_path, capsys,
                                                    small_binary, case):
        emb, model = small_binary
        header, values = mind.read_checkpoint(emb, gl.BINARY_MAGIC, "embeddings")
        tokens, want = header["tokens"], 2
        if case == "zero_rows":
            header, values, want = {"dim": 2, "tokens": []}, values[:0], 5
        elif case == "zero_dim":
            header, values = {"dim": 0, "tokens": tokens}, values[:0]
        elif case == "ragged_payload":
            values = values[:-1]
        elif case == "trailing_row":
            values = np.concatenate([values, values[:header["dim"]]])
        elif case == "tokens_not_a_list":
            header = dict(header, tokens=5)
        elif case == "header_not_an_object":
            header = tokens
        elif case == "repeated_token":
            header = dict(header, tokens=tokens[:-1] + tokens[:1])
        mind.write_checkpoint(emb, gl.BINARY_MAGIC, header, [values])
        if case == "header_not_utf8":
            with open(emb, "r+b") as fh:
                fh.seek(len(gl.BINARY_MAGIC) + 4)
                fh.write(b"\xff")
        elif case == "older_format":
            with open(emb, "wb") as fh:
                fh.write(b"NRECGLV1" + struct.pack("<II", len(tokens), 2) + values.tobytes())
        assert self.similar(pipeline, tmp_path, embeddings=emb, model=model) == want
        assert emb in capsys.readouterr().err

    def test_non_finite_embeddings_exit_2(self, pipeline, fixture_dir, tmp_path, capsys):
        with open(pipeline["embeddings"], encoding="utf-8") as fh:
            lines = fh.readlines()
        token, _, rest = lines[0].split(" ", 2)
        emb = tmp_path / "embeddings.txt"
        emb.write_text("".join([f"{token} nan {rest}", *lines[1:]]), encoding="utf-8")
        assert cli.main(["evaluate", "--corpus", pipeline["corpus"],
                         "--behaviors", fixture_dir.behaviors_test, "--embeddings", str(emb),
                         "--model", pipeline["model_bin"],
                         "--out-dir", str(tmp_path / "eval")]) == 2
        assert f"{emb}: token {token!r} has a nan" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["train-model", "similar"])
    def test_out_of_range_embedding_is_one_error_line(self, pipeline, fixture_dir, tmp_path,
                                                      capsys, command):
        """A component beyond float32's range reads as inf: exit 2 and one
        error line naming its token, with no numpy overflow warning before it."""
        with open(pipeline["embeddings"], encoding="utf-8") as fh:
            lines = fh.readlines()
        token, _, rest = lines[0].split(" ", 2)
        emb = tmp_path / "embeddings.txt"
        emb.write_text("".join([f"{token} 1e300 {rest}", *lines[1:]]), encoding="utf-8")
        out = tmp_path / "out"
        flags = {"train-model": ["--behaviors", fixture_dir.behaviors_train, *MODEL_FLAGS],
                 "similar": ["--model", pipeline["model_bin"], "--query", "N1"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--corpus", pipeline["corpus"], "--embeddings", str(emb),
                             "--out-dir", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == (f"newsrec {command}: error: {emb}: token {token!r} "
                                           "has a nan or infinite component\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-model", "similar"])
    def test_signalling_nan_in_binary_embeddings_is_one_error_line(self, pipeline, fixture_dir,
                                                                   tmp_path, capsys, command):
        """A float32 signalling NaN as the last component of embeddings.bin:
        exit 2 and one error line naming the file, with no numpy warning
        about an invalid cast before it."""
        emb = tmp_path / "embeddings.bin"
        lookup = gl.load_embeddings(pipeline["embeddings"])
        gl.save_embeddings_binary(str(emb), lookup)
        emb.write_bytes(emb.read_bytes()[:-4] + struct.pack("<I", 0x7F800001))
        out = tmp_path / "out"
        flags = {"train-model": ["--behaviors", fixture_dir.behaviors_train, *MODEL_FLAGS],
                 "similar": ["--model", pipeline["model_bin"], "--query", "N1"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--corpus", pipeline["corpus"], "--embeddings", str(emb),
                             "--out-dir", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == (f"newsrec {command}: error: {emb}: token "
                                           f"{lookup.tokens[-1]!r} has a nan or infinite "
                                           "component\n")
        assert not out.exists()

    def test_model_and_embedding_dimensions_must_agree(self, pipeline, fixture_dir, tmp_path,
                                                       capsys):
        glove = str(tmp_path / "glove4")
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"], "--out-dir", glove,
                         "--dim", "4", "--min-count", "1", "--epochs", "0"]) == 0
        emb = os.path.join(glove, "embeddings.txt")
        common = ["--corpus", pipeline["corpus"], "--embeddings", emb,
                  "--model", pipeline["model_bin"], "--out-dir", str(tmp_path / "out")]
        for argv in (["evaluate", "--behaviors", fixture_dir.behaviors_test, *common],
                     ["recommend", "--history", "N1,N2", *common],
                     ["similar", "--query", "N1", *common]):
            capsys.readouterr()
            assert cli.main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert pipeline["model_bin"] in err and emb in err, err

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

    @staticmethod
    def two_lines_with_a_two_byte_character(path, column):
        """The first two lines of ``path``, with "é" added to one column of
        the first, so some cuts split a character."""
        with open(path, encoding="utf-8") as fh:
            first, second = fh.readline(), fh.readline()
        cols = first.split("\t")
        cols[column] += " café"
        return ("\t".join(cols) + second).encode("utf-8")

    def test_news_cut_at_every_byte(self, fixture_dir, tmp_path, capsys):
        blob = self.two_lines_with_a_two_byte_character(fixture_dir.news, 3)
        cut = tmp_path / "news.tsv"
        codes = set()
        for offset in range(len(blob) + 1):
            cut.write_bytes(blob[:offset])
            code = cli.main(["prepare", "--news", str(cut), "--behaviors",
                             fixture_dir.behaviors_train, "--out-dir", str(tmp_path / "prep")])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4, 5), (offset, err)
            if code:
                assert str(cut) in err, (offset, err)
            codes.add(code)
        assert codes == {0, 3}

    def test_behaviors_cut_at_every_byte(self, fixture_dir, tmp_path, capsys):
        blob = self.two_lines_with_a_two_byte_character(fixture_dir.behaviors_train, 2)
        cut = tmp_path / "behaviors.tsv"
        codes = set()
        for offset in range(len(blob) + 1):
            cut.write_bytes(blob[:offset])
            code = cli.main(["stats", "--news", fixture_dir.news, "--behaviors", str(cut)])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3, 4, 5), (offset, err)
            if code == 0:
                json.loads(out)
            codes.add(code)
        assert codes == {0}

    def test_malformed_tokenized_line_names_path_and_line(self, pipeline, tmp_path, capsys):
        with open(pipeline["corpus"], encoding="utf-8") as fh:
            lines = fh.readlines()[:3]
        bad = tmp_path / "tokenized.tsv"
        bad.write_text(lines[0] + lines[1] + "N999\tonly three\tcolumns\n", encoding="utf-8")
        assert self.similar(pipeline, tmp_path, corpus=str(bad)) == 3
        assert f"{bad}:3: expected 7 columns" in capsys.readouterr().err

    def test_repeated_news_id_exits_3_without_outputs(self, pipeline, fixture_dir, tmp_path,
                                                       capsys):
        """A line that gives N6's title the id N1 would otherwise be N6's
        nearest neighbour at distance 0 under the id N1."""
        with open(pipeline["corpus"], encoding="utf-8") as fh:
            lines = fh.readlines()
        n6 = next(line for line in lines if line.startswith("N6\t"))
        bad = tmp_path / "tokenized.tsv"
        bad.write_text("".join(lines) + "N1" + n6[2:], encoding="utf-8")
        reason = f"{bad}:{len(lines) + 1}: news id 'N1' repeats line "
        headline = n6.split("\t")[3]
        for argv in (["train-model", "--behaviors", fixture_dir.behaviors_train, *MODEL_FLAGS],
                     ["similar", "--model", pipeline["model_bin"], "--query", headline]):
            out = tmp_path / argv[0]
            assert cli.main([*argv, "--corpus", str(bad), "--embeddings", pipeline["embeddings"],
                             "--out-dir", str(out)]) == 3
            assert reason in capsys.readouterr().err
            assert not out.exists()

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


GLOVE_VALUES = {"dim": 3, "window": 2, "x_max": 7.5, "alpha": 0.5, "learning_rate": 0.01,
                "epochs": 1, "min_count": 2}
MODEL_VALUES = {"heads": 1, "d_head": 3, "d_attn": 5, "negatives": 2, "max_title_tokens": 4,
                "max_history": 3, "learning_rate": 0.02, "epochs": 1, "batch_size": 7}


def as_flags(values):
    return [arg for name, value in values.items()
            for arg in ("--" + name.replace("_", "-"), str(value))]


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestRunLifecycle:
    """Every command records what it read and wrote in one manifest."""

    def command(self, name, pipeline, fixture_dir):
        """(input flags, other flags) for one run of ``name`` on the pipeline's artifacts."""
        model_stack = {"--corpus": pipeline["corpus"], "--embeddings": pipeline["embeddings"],
                       "--model": pipeline["model_bin"]}
        raw = {"--news": fixture_dir.news, "--behaviors": fixture_dir.behaviors_train}
        return {
            "prepare": (raw, []),
            "train-glove": ({"--corpus": pipeline["corpus"]}, as_flags(GLOVE_VALUES)),
            "train-model": ({"--corpus": pipeline["corpus"], "--embeddings": pipeline["embeddings"],
                             "--behaviors": fixture_dir.behaviors_train}, as_flags(MODEL_VALUES)),
            "evaluate": (dict(model_stack, **{"--behaviors": fixture_dir.behaviors_test}), []),
            "recommend": (dict(model_stack, **{"--behaviors": fixture_dir.behaviors_train}),
                          ["--user", "U1", "--top-n", "3"]),
            "similar": (model_stack, ["--query", "N1", "--top-n", "2"]),
            "analytics": ({"--corpus": pipeline["corpus"]}, ["--top-k", "3"]),
            "stats": (raw, []),
        }[name]

    @pytest.mark.parametrize("name", ["prepare", "train-glove", "train-model", "evaluate",
                                      "recommend", "similar", "analytics", "stats"])
    def test_manifest_records_every_input_and_output(self, name, pipeline, fixture_dir,
                                                     tmp_path, capsys):
        inputs, extra = self.command(name, pipeline, fixture_dir)
        out = tmp_path / "out"
        argv = [name, *(arg for pair in inputs.items() for arg in pair), *extra,
                "--out-dir", str(out)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        manifest_name = f"manifest_{name.replace('-', '_')}.json"
        manifest = json.loads((out / manifest_name).read_text(encoding="utf-8"))
        assert sorted(manifest) == ["command", "config", "inputs", "outputs", "phase_seconds"]
        assert manifest["command"] == name
        written = {str(path): sha256_of(path) for path in out.iterdir()
                   if path.name != manifest_name}
        assert manifest["outputs"] == written
        assert manifest["inputs"] == {path: sha256_of(path) for path in inputs.values()}
        section = {"train-glove": ("glove", GLOVE_VALUES), "train-model": ("model", MODEL_VALUES)}
        if name in section:
            key, values = section[name]
            assert {k: manifest["config"][key][k] for k in values} == values

    @pytest.mark.parametrize("name", ["prepare", "similar"])
    def test_manifest_records_the_stopword_lexicon(self, name, pipeline, fixture_dir,
                                                   tmp_path, capsys):
        inputs, extra = self.command(name, pipeline, fixture_dir)
        lexicon = tmp_path / "stop.txt"
        lexicon.write_text("the\nof\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([name, *(arg for pair in inputs.items() for arg in pair), *extra,
                         "--stopwords", str(lexicon), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / f"manifest_{name}.json").read_text(encoding="utf-8"))
        assert manifest["inputs"][str(lexicon)] == sha256_of(lexicon)
        assert manifest["config"]["run"]["stopwords"] == str(lexicon)

    def test_stopwords_environment_variable_changes_no_output(self, pipeline, fixture_dir,
                                                              tmp_path, monkeypatch, capsys):
        lexicon = tmp_path / "stop.txt"
        lexicon.write_text("the\n", encoding="utf-8")
        monkeypatch.setenv("NEWSREC_STOPWORDS", str(lexicon))
        out = tmp_path / "out"
        assert cli.main(["prepare", "--news", fixture_dir.news,
                         "--behaviors", fixture_dir.behaviors_train, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        for name in ("tokenized.tsv", "clean_report.json"):
            assert (out / name).read_bytes() == open(os.path.join(pipeline["prep"], name),
                                                      "rb").read()
        manifest = json.loads((out / "manifest_prepare.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == sorted([fixture_dir.news, fixture_dir.behaviors_train])

    def test_second_call_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        argv = ["stats", "--news", str(tmp_path / "absent.tsv"),
                "--behaviors", str(tmp_path / "absent.tsv")]
        assert cli.main(argv) == 3
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main(argv) == 3
        assert built == []

    def test_flag_values_cover_every_trainer_field_but_seed(self):
        for cls, values in ((gl.GloveConfig, GLOVE_VALUES), (mdl.ModelConfig, MODEL_VALUES)):
            names = {f.name for f in fields(cls)} - {"seed"}
            assert set(values) == names
            assert all(values[f.name] != f.default for f in fields(cls) if f.name in names)


class TestAtomicOutputs:
    def test_outputs_get_the_mode_open_gives(self, pipeline, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        old = os.umask(0o027)
        try:
            assert cli.main(["train-glove", "--corpus", pipeline["corpus"], "--format", "binary",
                             "--out-dir", str(out), *as_flags(GLOVE_VALUES)]) == 0
            assert cli.main(["train-model", "--corpus", pipeline["corpus"],
                             "--behaviors", fixture_dir.behaviors_train,
                             "--embeddings", str(out / "embeddings.bin"), "--out-dir", str(out),
                             *as_flags(MODEL_VALUES)]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
        assert "model.bin" in modes and "embeddings.bin" in modes
        assert set(modes.values()) == {0o640}, modes

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, trained):
        target = tmp_path / "model.bin"
        target.mkdir()
        with pytest.raises(OSError):
            mdl.save_model(str(target), trained["params"])
        assert os.listdir(tmp_path) == ["model.bin"]


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

    def test_zero_epochs_without_cooccurring_pairs_writes_initialization(self, tmp_path):
        corpus = str(tmp_path / "tokenized.tsv")
        tp.save_tokenized(corpus, [tp.TokenizedNews(f"N{i}", "c", "s", word, "", word, "")
                                   for i, word in enumerate(("alpha", "beta", "gamma"))])
        out = str(tmp_path / "glove0")
        flags = ["--corpus", corpus, "--out-dir", out, "--dim", "4", "--min-count", "1"]
        assert cli.main(["train-glove", *flags, "--epochs", "0", "--seed", "3"]) == 0
        lookup = gl.load_embeddings(os.path.join(out, "embeddings.txt"))
        table = gl.init_table(3, 4, seed=3)
        assert np.array_equal(lookup.matrix, (table.W + table.Wt).astype(np.float32))
        assert cli.main(["train-glove", *flags, "--epochs", "1"]) == 5

    def test_every_token_below_min_count_exits_5(self, tmp_path, capsys):
        corpus = str(tmp_path / "tokenized.tsv")
        tp.save_tokenized(corpus, [tp.TokenizedNews("N1", "c", "s", "alpha beta", "gamma",
                                                    "alpha beta", "gamma"),
                                   tp.TokenizedNews("N2", "c", "s", "beta", "", "beta", "")])
        out = tmp_path / "glove"
        assert cli.main(["train-glove", "--corpus", corpus, "--out-dir", str(out),
                         "--min-count", "3"]) == 5
        assert "min_count=3" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_format_round_trips(self, pipeline, fixture_dir, tmp_path):
        """Binary embeddings load as the text ones do, and ``evaluate``
        writes the same bytes from either."""
        out = str(tmp_path / "glovebin")
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"],
                         "--out-dir", out, "--format", "binary", *GLOVE_FLAGS]) == 0
        binary = gl.load_embeddings(os.path.join(out, "embeddings.bin"))
        text = gl.load_embeddings(pipeline["embeddings"])
        assert binary.tokens == text.tokens
        assert np.array_equal(binary.matrix, text.matrix)
        evaluated = tmp_path / "eval"
        assert cli.main(["evaluate", "--corpus", pipeline["corpus"],
                         "--behaviors", fixture_dir.behaviors_test,
                         "--embeddings", os.path.join(out, "embeddings.bin"),
                         "--model", pipeline["model_bin"], "--out-dir", str(evaluated)]) == 0
        for name in ("prediction.txt", "metrics.json"):
            with open(os.path.join(pipeline["eval"], name), "rb") as fh:
                assert (evaluated / name).read_bytes() == fh.read(), name

    def test_writes_only_embeddings_trace_and_manifest(self, pipeline, tmp_path):
        out = tmp_path / "glovebin"
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"], "--out-dir", str(out),
                         "--format", "binary", "--min-count", "1", "--epochs", "0"]) == 0
        assert sorted(os.listdir(out)) == ["embeddings.bin", "glove_trace.csv",
                                           "manifest_train_glove.json"]
        assert sorted(os.listdir(pipeline["glove"])) == ["embeddings.txt", "glove_trace.csv",
                                                         "manifest_train_glove.json"]

    def test_manifest_records_digests_and_config(self, pipeline):
        manifest = json.loads(open(os.path.join(
            pipeline["glove"], "manifest_train_glove.json")).read())
        assert manifest["command"] == "train-glove"
        assert sorted(manifest["config"]) == ["glove", "model", "run"]
        assert any(name.endswith("tokenized.tsv") for name in manifest["inputs"])
        assert any(name.endswith("embeddings.txt") for name in manifest["outputs"])
        for digest in manifest["outputs"].values():
            assert len(digest) == 64


class TestTrainModelDivergence:
    """Weights that outgrow float32 end in exit 4 and write no model.bin,
    which every reader would refuse."""

    def train(self, pipeline, fixture_dir, out, *flags):
        return cli.main(["train-model", "--corpus", pipeline["corpus"],
                         "--behaviors", fixture_dir.behaviors_train,
                         "--embeddings", pipeline["embeddings"], "--out-dir", str(out),
                         *MODEL_FLAGS, *flags])

    def test_one_step_run_exits_4_without_model(self, pipeline, fixture_dir, tmp_path, capsys):
        """One Adam step to 1e39, past float32's range: only the check
        after the last step sees it."""
        out = tmp_path / "model"
        assert self.train(pipeline, fixture_dir, out, "--epochs", "1", "--batch-size", "1024",
                          "--learning-rate", "1e39") == 4
        err = capsys.readouterr().err
        assert "is nan/inf in float32" in err and "Traceback" not in err
        assert not (out / "model.bin").exists()

    def test_multi_step_run_exits_4_without_model(self, pipeline, fixture_dir, tmp_path, capsys):
        out = tmp_path / "model"
        assert self.train(pipeline, fixture_dir, out, "--learning-rate", "1e38") == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "model.bin").exists()

    def test_diverging_run_prints_only_the_error_line(self, pipeline, fixture_dir, tmp_path,
                                                      capsys):
        """The overflow that ends training is reported by the exit-4 line
        alone: numpy's RuntimeWarnings would be raised here, not printed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = self.train(pipeline, fixture_dir, tmp_path / "model", "--learning-rate", "1e38")
        assert code == 4
        assert capsys.readouterr().err == ("newsrec train-model: error: training loss became "
                                           "non-finite (learning_rate=1e+38)\n")


def test_negatives_drawn_with_replacement_is_one_plain_warning_line(pipeline, fixture_dir,
                                                                     tmp_path, capsys):
    """Impressions with 4 non-clicked candidates and ``--negatives 6``: one
    ``warning:`` line on stderr, not Python's warning header and source line."""
    assert cli.main(["train-model", "--corpus", pipeline["corpus"],
                     "--behaviors", fixture_dir.behaviors_train,
                     "--embeddings", pipeline["embeddings"], "--out-dir", str(tmp_path / "model"),
                     *MODEL_FLAGS, "--epochs", "1", "--negatives", "6"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("newsrec train-model: warning: ") and err.count("\n") == 1
    assert "fewer than 6 non-clicked candidates drew their negatives with replacement" in err
    assert "warnings.warn" not in err and "InsufficientNegatives" not in err


def test_epoch_trace_csv_writes_one_repr_line_per_epoch():
    assert cli.epoch_trace_csv("cost", [1.5, 0.25]) == "epoch,cost\n1,1.5\n2,0.25\n"
    assert cli.epoch_trace_csv("mean_loss", [0.1]) == "epoch,mean_loss\n1,0.1\n"
    assert cli.epoch_trace_csv("cost", []) == "epoch,cost\n"


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

    def test_ids_int_cannot_parse_are_ordered_not_fatal(self, pipeline, fixture_dir,
                                                         tmp_path):
        huge = "1" * 5000  # past int()'s 4,300-digit limit
        ids = ["\u00b2", huge, "10", "007", "9", "7"]
        with open(fixture_dir.behaviors_test, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[:len(ids)]
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text("".join(f"{i}\t{line.split(chr(9), 1)[1]}\n"
                                     for i, line in zip(ids, lines)), encoding="utf-8")
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--corpus", pipeline["corpus"],
                         "--behaviors", str(behaviors), "--embeddings", pipeline["embeddings"],
                         "--model", pipeline["model_bin"], "--out-dir", str(out)]) == 0
        with open(out / "prediction.txt", encoding="utf-8") as fh:
            got = [impression_id for impression_id, _ in mind.read_predictions(fh)]
        assert got == ["007", "7", "9", "10", huge, "\u00b2"]

    def test_unreferenced_news_leaves_outputs_unchanged(self, pipeline, fixture_dir, tmp_path):
        corpus = tp.load_tokenized(pipeline["corpus"])
        extra = corpus[0]._replace(news_id="NEXTRA")
        bigger = str(tmp_path / "tokenized.tsv")
        tp.save_tokenized(bigger, [extra, *corpus])
        out = str(tmp_path / "eval")
        assert cli.main(["evaluate", "--corpus", bigger,
                         "--behaviors", fixture_dir.behaviors_test,
                         "--embeddings", pipeline["embeddings"], "--model", pipeline["model_bin"],
                         "--out-dir", out]) == 0
        for name in ("metrics.json", "prediction.txt"):
            with open(os.path.join(out, name), "rb") as got, \
                    open(os.path.join(pipeline["eval"], name), "rb") as want:
                assert got.read() == want.read(), name


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

    @pytest.mark.parametrize("pool, reason", [
        ("ZZZ,YYY,ZZZ", "of 2 distinct pool ids, 2 are not in the corpus index and 0"),
        ("N2,N1,N2", "of 2 distinct pool ids, 0 are not in the corpus index and 2"),
        (",,", "candidate pool is empty"),
        ("", "candidate pool is empty"),
    ], ids=["unknown_ids", "history_only", "commas_only", "empty"])
    def test_recommend_with_nothing_to_score_exits_5(self, pipeline, tmp_path, capsys,
                                                      pool, reason):
        out = tmp_path / "rec"
        code = cli.main(["recommend", "--corpus", pipeline["corpus"],
                         "--embeddings", pipeline["embeddings"],
                         "--model", pipeline["model_bin"], "--history", "N1,N2",
                         "--pool", pool, "--out-dir", str(out)])
        assert code == 5
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_recommend_takes_an_empty_history_as_a_cold_start_user(self, pipeline, tmp_path,
                                                                    capsys):
        """``--history ''`` is given, like ``--history ,,``: an ad-hoc user
        with no click, not a missing user source."""
        written = []
        for history in (",,", ""):
            out = tmp_path / f"rec{len(written)}"
            assert cli.main(["recommend", "--corpus", pipeline["corpus"],
                             "--embeddings", pipeline["embeddings"],
                             "--model", pipeline["model_bin"], "--history", history,
                             "--top-n", "3", "--out-dir", str(out)]) == 0
            capsys.readouterr()
            written.append((out / "recommendations.json").read_bytes())
        assert written[0] == written[1]
        payload = json.loads(written[0])
        assert payload["user_id"] == "<ad-hoc>" and len(payload["entries"]) == 3

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


class TestNewsIndex:
    """``recommend`` and ``similar`` keep the corpus's news vectors in
    ``--out-dir``/news_index.bin and reuse them while the inputs are unchanged."""

    OUTPUT = {"recommend": "recommendations.json", "similar": "similar.json"}

    def query_args(self, kind, pipeline, fixture_dir):
        corpus = tp.load_tokenized(pipeline["corpus"])
        return {
            "user": ["recommend", "--user", "U1", "--behaviors", fixture_dir.behaviors_train],
            "history": ["recommend", "--history", "N1,N2,N3", "--user-id", "X"],
            "id": ["similar", "--query", "N1"],
            "headline": ["similar", "--query", corpus[1].raw_title],
            "text": ["similar", "--query", " ".join(reversed(corpus[2].raw_title.split()))],
        }[kind]

    def run(self, args, out, capsys, corpus, embeddings, model):
        """(exit code, stdout, the command's output file) of one query into ``out``."""
        code = cli.main([*args, "--corpus", str(corpus), "--embeddings", str(embeddings),
                         "--model", str(model), "--top-n", "4", "--out-dir", str(out)])
        stdout = capsys.readouterr().out
        produced = out / self.OUTPUT[args[0]]
        return code, stdout, produced.read_bytes() if produced.exists() else None

    def failure(self, args, out, capsys, corpus, embeddings, model):
        """(exit code, stderr) of one query into ``out``."""
        code = cli.main([*args, "--corpus", str(corpus), "--embeddings", str(embeddings),
                         "--model", str(model), "--top-n", "4", "--out-dir", str(out)])
        return code, capsys.readouterr().err

    def stack(self, pipeline):
        return pipeline["corpus"], pipeline["embeddings"], pipeline["model_bin"]

    @pytest.mark.parametrize("kind", ["user", "history", "id", "headline", "text"])
    def test_warm_call_gives_the_cold_calls_bytes(self, kind, pipeline, fixture_dir, tmp_path,
                                                  capsys):
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        cold = self.run(args, out, capsys, *self.stack(pipeline))
        index = (out / "news_index.bin").read_bytes()
        assert index.startswith(b"NRECIDX2")
        warm = self.run(args, out, capsys, *self.stack(pipeline))
        assert cold[0] == 0 and cold[2] is not None
        assert warm == cold
        assert (out / "news_index.bin").read_bytes() == index

    def test_index_holds_the_built_vectors_as_float32(self, pipeline, tmp_path, capsys):
        out = tmp_path / "q"
        assert self.run(["similar", "--query", "N1"], out, capsys, *self.stack(pipeline))[0] == 0
        header, values = mind.read_checkpoint(str(out / "news_index.bin"), b"NRECIDX2",
                                              "a news index")
        corpus = tp.load_tokenized(pipeline["corpus"])
        params = mdl.load_model(pipeline["model_bin"])
        built = ret.CorpusIndex(corpus, gl.load_embeddings(pipeline["embeddings"]), params)
        assert header["ids"] == [item.news_id for item in built.items]
        assert header["numpy"] == np.__version__
        assert header["inputs"] == {"corpus": sha256_of(pipeline["corpus"]),
                                    "embeddings": sha256_of(pipeline["embeddings"]),
                                    "model": sha256_of(pipeline["model_bin"])}
        assert built.matrix.dtype == np.float32
        assert values.tobytes() == built.matrix.tobytes()
        assert values.size == len(built) * params.config.d_model

    def changed_input(self, which, pipeline, tmp_path):
        """The pipeline's stack with one input copied and changed."""
        corpus, embeddings, model = (tmp_path / name for name in
                                     ("tokenized.tsv", "embeddings.txt", "model.bin"))
        lines = open(pipeline["corpus"], "rb").read().splitlines(keepends=True)
        corpus.write_bytes(b"".join(lines[:-1] if which == "corpus" else lines))
        rows = open(pipeline["embeddings"], "rb").read().splitlines(keepends=True)
        if which == "embeddings":
            token, first, rest = rows[0].split(b" ", 2)
            rows[0] = b" ".join([token, repr(float(first) + 0.5).encode(), rest])
        embeddings.write_bytes(b"".join(rows))
        params = mdl.load_model(pipeline["model_bin"])
        if which == "model":
            params.news.weights.data[0] += 0.5
        mdl.save_model(str(model), params)
        return corpus, embeddings, model

    @pytest.mark.parametrize("which", ["corpus", "embeddings", "model"])
    @pytest.mark.parametrize("kind", ["history", "text"])
    def test_changed_input_rebuilds_the_index(self, which, kind, pipeline, fixture_dir,
                                              tmp_path, capsys):
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        assert self.run(args, out, capsys, *self.stack(pipeline))[0] == 0
        stale = (out / "news_index.bin").read_bytes()
        changed = self.changed_input(which, pipeline, tmp_path)
        again = self.run(args, out, capsys, *changed)
        fresh = self.run(args, tmp_path / "fresh", capsys, *changed)
        assert again == fresh and fresh[0] == 0
        index = (out / "news_index.bin").read_bytes()
        assert index == (tmp_path / "fresh" / "news_index.bin").read_bytes()
        assert index != stale

    def test_index_of_another_numpy_is_rebuilt(self, pipeline, tmp_path, capsys):
        out = tmp_path / "q"
        args = ["similar", "--query", "N1"]
        first = self.run(args, out, capsys, *self.stack(pipeline))
        path = str(out / "news_index.bin")
        built = open(path, "rb").read()
        header, values = mind.read_checkpoint(path, b"NRECIDX2", "a news index")
        # stale vectors that would change the output if they were read
        mind.write_checkpoint(path, b"NRECIDX2", dict(header, numpy="0.0"), [values + 1.0])
        assert self.run(args, out, capsys, *self.stack(pipeline)) == first
        assert open(path, "rb").read() == built

    @pytest.mark.parametrize("kind", ["history", "id", "text"])
    def test_float64_index_of_an_earlier_build_is_rebuilt(self, kind, pipeline, fixture_dir,
                                                          tmp_path, capsys):
        """An ``NRECIDX1`` file, the float64 layout with a ``dtype`` header
        key, keyed to these very inputs, is stale: the query rebuilds the
        index and gives a cold query's bytes."""
        args = self.query_args(kind, pipeline, fixture_dir)
        cold = self.run(args, tmp_path / "cold", capsys, *self.stack(pipeline))
        built = (tmp_path / "cold" / "news_index.bin").read_bytes()
        header, values = mind.read_checkpoint(str(tmp_path / "cold" / "news_index.bin"),
                                              b"NRECIDX2", "a news index")
        blob = json.dumps(dict(header, dtype="<f8"), sort_keys=True).encode("utf-8")
        out = tmp_path / "q"
        out.mkdir()
        # stale vectors that would change the output if they were read
        (out / "news_index.bin").write_bytes(b"NRECIDX1" + struct.pack("<I", len(blob)) + blob
                                             + (values.astype("<f8") + 1.0).tobytes())
        assert self.run(args, out, capsys, *self.stack(pipeline)) == cold
        assert cold[0] == 0 and (out / "news_index.bin").read_bytes() == built

    @pytest.mark.parametrize("kind", ["history", "id"])
    def test_manifest_lists_the_index_when_built_and_when_reused(self, kind, pipeline,
                                                                 fixture_dir, tmp_path, capsys):
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        manifest = out / f"manifest_{args[0]}.json"
        for _ in range(2):
            assert self.run(args, out, capsys, *self.stack(pipeline))[0] == 0
            outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
            index = str(out / "news_index.bin")
            assert outputs == {str(path): sha256_of(path) for path in out.iterdir()
                               if path != manifest}
            assert index in outputs

    def garble(self, case, path):
        header, values = mind.read_checkpoint(path, b"NRECIDX2", "a news index")
        blob = open(path, "rb").read()
        if case == "bad_magic":
            blob = b"NRECIDX0" + blob[8:]
        elif case == "model_magic":
            blob = mdl.MODEL_MAGIC + blob[8:]
        elif case == "cut_in_header":
            blob = blob[:20]
        elif case == "cut_in_payload":
            blob = blob[:-3]
        elif case == "row_short":
            blob = blob[:-8]
        elif case == "float64_payload":
            blob = blob[:len(blob) - 4 * values.size] + values.astype("<f8").tobytes()
        elif case in ("unknown_id", "repeated_id", "ids_not_a_list"):
            ids = {"unknown_id": ["ZZZ"] + header["ids"][1:],
                   "repeated_id": header["ids"][1:2] + header["ids"][1:],
                   "ids_not_a_list": 7}[case]
            mind.write_checkpoint(path, b"NRECIDX2", dict(header, ids=ids), [values])
            return
        with open(path, "wb") as fh:
            fh.write(blob)

    @pytest.mark.parametrize("case", ["bad_magic", "model_magic", "cut_in_header",
                                      "cut_in_payload", "row_short", "float64_payload",
                                      "unknown_id", "repeated_id", "ids_not_a_list"])
    @pytest.mark.parametrize("kind", ["user", "id"])
    def test_garbled_index_exits_2_naming_it(self, case, kind, pipeline, fixture_dir, tmp_path,
                                             capsys):
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        assert self.run(args, out, capsys, *self.stack(pipeline))[0] == 0
        path = str(out / "news_index.bin")
        self.garble(case, path)
        garbled = open(path, "rb").read()
        code = cli.main([*args, "--corpus", pipeline["corpus"], "--embeddings",
                         pipeline["embeddings"], "--model", pipeline["model_bin"],
                         "--out-dir", str(out)])
        assert code == 2
        assert path in capsys.readouterr().err
        assert open(path, "rb").read() == garbled

    def test_failed_query_leaves_no_index(self, pipeline, fixture_dir, tmp_path, capsys):
        out = tmp_path / "q"
        code = cli.main(["recommend", "--corpus", pipeline["corpus"],
                         "--embeddings", pipeline["embeddings"], "--model", pipeline["model_bin"],
                         "--user", "NOBODY", "--behaviors", fixture_dir.behaviors_train,
                         "--out-dir", str(out)])
        assert code == 3
        assert "user 'NOBODY' does not appear" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["user", "history", "id", "headline"])
    def test_warm_query_parses_no_embeddings_or_token_columns(self, kind, pipeline, fixture_dir,
                                                              tmp_path, capsys, monkeypatch):
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        cold = self.run(args, out, capsys, *self.stack(pipeline))
        assert cold[0] == 0

        def unused(*_args):
            raise AssertionError("a warm query parsed what it does not read")

        monkeypatch.setattr(gl, "load_embeddings", unused)
        monkeypatch.setattr(tp.TokenizedNews, "title_tokens", property(unused))
        monkeypatch.setattr(tp.TokenizedNews, "abstract_tokens", property(unused))
        assert self.run(args, out, capsys, *self.stack(pipeline)) == cold

    def embeddings(self, fmt, pipeline, tmp_path):
        """The pipeline's embeddings as ``fmt``: its text file, or the same
        vectors as a binary checkpoint."""
        if fmt == "text":
            return pipeline["embeddings"]
        path = str(tmp_path / "embeddings.bin")
        gl.save_embeddings_binary(path, gl.load_embeddings(pipeline["embeddings"]))
        return path

    def test_free_text_query_loads_the_embeddings_once(self, pipeline, fixture_dir, tmp_path,
                                                       capsys, monkeypatch):
        """Cold, one load of every row; warm, one load of the rows of the
        query's first ``max_title_tokens`` normalized tokens; in both formats."""
        calls = []
        load = gl.load_embeddings
        monkeypatch.setattr(gl, "load_embeddings",
                            lambda path, only=None: calls.append((path, only)) or load(path, only))
        args = self.query_args("text", pipeline, fixture_dir)
        max_tokens = mdl.load_model(pipeline["model_bin"]).config.max_title_tokens
        tokens = set(tp.normalize_text(args[-1], tp.load_stopwords())[:max_tokens])
        for fmt in ("text", "binary"):
            stack = (pipeline["corpus"], self.embeddings(fmt, pipeline, tmp_path),
                     pipeline["model_bin"])
            outputs = []
            for only in (None, tokens):
                calls.clear()
                outputs.append(self.run(args, tmp_path / fmt, capsys, *stack))
                assert calls == [(stack[1], only)]
            assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_warm_free_text_query_parses_only_its_tokens_rows(self, fmt, pipeline, fixture_dir,
                                                              tmp_path, capsys, monkeypatch):
        args = self.query_args("text", pipeline, fixture_dir)
        stack = (pipeline["corpus"], self.embeddings(fmt, pipeline, tmp_path), pipeline["model_bin"])
        cold = self.run(args, tmp_path / "cold", capsys, *stack)
        out = tmp_path / "q"
        assert self.run(["similar", "--query", "N1"], out, capsys, *stack)[0] == 0
        index = (out / "news_index.bin").read_bytes()
        rows, parsed = [], []
        from_rows, parse = gl.EmbeddingLookup.from_rows.__func__, gl._parse_components
        monkeypatch.setattr(gl.EmbeddingLookup, "from_rows", classmethod(
            lambda cls, tokens, *rest: rows.extend(tokens) or from_rows(cls, tokens, *rest)))
        monkeypatch.setattr(gl, "_parse_components", lambda path, fields, linenos:
                            parsed.extend(linenos) or parse(path, fields, linenos))
        warm = self.run(args, out, capsys, *stack)
        assert warm == cold and cold[0] == 0
        max_tokens = mdl.load_model(pipeline["model_bin"]).config.max_title_tokens
        tokens = tp.normalize_text(args[-1], tp.load_stopwords())[:max_tokens]
        assert rows and set(rows) <= set(tokens) and len(rows) == len(set(rows))
        assert len(parsed) == (len(rows) if fmt == "text" else 0)
        assert len(rows) < len(gl.load_embeddings(stack[1]))
        assert (out / "news_index.bin").read_bytes() == index

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_warm_free_text_query_with_no_known_token_exits_5(self, fmt, pipeline, tmp_path,
                                                              capsys):
        stack = (pipeline["corpus"], self.embeddings(fmt, pipeline, tmp_path), pipeline["model_bin"])
        args = ["similar", "--query", "qqq zzz"]
        cold = self.failure(args, tmp_path / "cold", capsys, *stack)
        out = tmp_path / "q"
        assert self.run(["similar", "--query", "N1"], out, capsys, *stack)[0] == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert self.failure(args, out, capsys, *stack) == cold
        assert cold[0] == 5 and "no embeddable token among ['qqq', 'zzz']" in cold[1], cold
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @staticmethod
    def change_one_byte(path, lineno, column):
        """Change the last character of one space- or tab-separated column of
        one line, to another digit or letter."""
        lines = open(path, "rb").read().splitlines(keepends=True)
        sep = b"\t" if path.endswith(".tsv") else b" "
        fields = lines[lineno].rstrip(b"\n").split(sep)
        last = fields[column][-1:]
        fields[column] = fields[column][:-1] + (b"1" if last.isdigit() and last != b"1" else
                                                b"2" if last.isdigit() else
                                                b"q" if last != b"q" else b"z")
        lines[lineno] = sep.join(fields) + b"\n"
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))

    @pytest.mark.parametrize("which", ["corpus", "embeddings"])
    @pytest.mark.parametrize("kind", ["user", "id", "text"])
    def test_one_changed_byte_rebuilds_the_index(self, which, kind, pipeline, fixture_dir,
                                                 tmp_path, capsys):
        """The byte lies where a warm query never looks: in the abstract
        tokens of tokenized.tsv, or in a vector of embeddings.txt."""
        corpus, embeddings = str(tmp_path / "tokenized.tsv"), str(tmp_path / "embeddings.txt")
        shutil.copy(pipeline["corpus"], corpus)
        shutil.copy(pipeline["embeddings"], embeddings)
        stack = (corpus, embeddings, pipeline["model_bin"])
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        assert self.run(args, out, capsys, *stack)[0] == 0
        stale = (out / "news_index.bin").read_bytes()
        if which == "corpus":
            self.change_one_byte(corpus, 0, 6)
        else:
            self.change_one_byte(embeddings, 0, 1)
        again = self.run(args, out, capsys, *stack)
        fresh = self.run(args, tmp_path / "fresh", capsys, *stack)
        assert again == fresh and fresh[0] == 0
        index = (out / "news_index.bin").read_bytes()
        assert index == (tmp_path / "fresh" / "news_index.bin").read_bytes() != stale

    @pytest.mark.parametrize("case", ["six_columns", "repeated_id"])
    @pytest.mark.parametrize("kind", ["user", "headline"])
    def test_bad_corpus_line_exits_3_beside_a_warm_index(self, case, kind, pipeline, fixture_dir,
                                                         tmp_path, capsys):
        corpus = tmp_path / "tokenized.tsv"
        lines = open(pipeline["corpus"], encoding="utf-8").read().splitlines(keepends=True)
        corpus.write_text("".join(lines), encoding="utf-8")
        stack = (corpus, pipeline["embeddings"], pipeline["model_bin"])
        args = self.query_args(kind, pipeline, fixture_dir)
        out = tmp_path / "q"
        assert self.run(args, out, capsys, *stack)[0] == 0
        index = (out / "news_index.bin").read_bytes()
        if case == "six_columns":
            lines[2] = "\t".join(lines[2].split("\t")[:6]) + "\n"
            reason = f"{corpus}:3: expected 7 columns, got 6"
        else:
            lines.append(lines[0])
            reason = f"{corpus}:{len(lines)}: news id 'N1' repeats line 1"
        corpus.write_text("".join(lines), encoding="utf-8")
        code, err = self.failure(args, out, capsys, *stack)
        assert code == 3 and reason in err, err
        assert (out / "news_index.bin").read_bytes() == index

    def test_width_mismatch_exits_2_on_cold_and_warm_free_text_queries(
            self, pipeline, fixture_dir, tmp_path, capsys):
        """An index keyed to 4-dim embeddings that the model cannot read:
        a query by id never parses them, free text must."""
        glove = str(tmp_path / "glove4")
        assert cli.main(["train-glove", "--corpus", pipeline["corpus"], "--out-dir", glove,
                         "--dim", "4", "--min-count", "1", "--epochs", "0"]) == 0
        emb4 = os.path.join(glove, "embeddings.txt")
        stack = (pipeline["corpus"], emb4, pipeline["model_bin"])
        text = self.query_args("text", pipeline, fixture_dir)
        code, err = self.failure(text, tmp_path / "cold", capsys, *stack)
        assert code == 2 and pipeline["model_bin"] in err and emb4 in err, err
        out = tmp_path / "q"
        assert self.run(["similar", "--query", "N1"], out, capsys, *self.stack(pipeline))[0] == 0
        path = str(out / "news_index.bin")
        header, values = mind.read_checkpoint(path, b"NRECIDX2", "a news index")
        inputs = dict(header["inputs"], embeddings=sha256_of(emb4))
        mind.write_checkpoint(path, b"NRECIDX2", dict(header, inputs=inputs), [values])
        assert self.run(["similar", "--query", "N1"], out, capsys, *stack)[0] == 0
        code, err = self.failure(text, out, capsys, *stack)
        assert code == 2 and pipeline["model_bin"] in err and emb4 in err, err

    @pytest.mark.parametrize("command", ["similar", "evaluate"])
    def test_model_replaced_while_loading_is_the_one_recorded(self, command, pipeline,
                                                              fixture_dir, tmp_path, capsys,
                                                              monkeypatch):
        """A model.bin replaced after the command read it (say, by a
        train-model into its directory): the outputs, the manifest's digest
        and the index key all belong to the bytes that were parsed."""
        original = open(pipeline["model_bin"], "rb").read()
        params = mdl.load_model(pipeline["model_bin"])
        other = str(tmp_path / "other.bin")
        mdl.save_model(other, mdl.init_params(params.embed_dim, replace(params.config, seed=99)))
        model = tmp_path / "model.bin"
        model.write_bytes(original)
        load = mdl.load_model

        def replaced_then_loaded(path, *rest):
            shutil.copy(other, path)
            return load(path, *rest)

        def run(out, model):
            args = (["evaluate", "--behaviors", fixture_dir.behaviors_test] if command == "evaluate"
                    else ["similar", "--query", "N1"])
            assert cli.main([*args, "--corpus", pipeline["corpus"], "--embeddings",
                             pipeline["embeddings"], "--model", str(model),
                             "--out-dir", str(out)]) == 0
            name = "prediction.txt" if command == "evaluate" else "similar.json"
            return (out / name).read_bytes()

        want = run(tmp_path / "want", pipeline["model_bin"])
        monkeypatch.setattr(mdl, "load_model", replaced_then_loaded)
        assert run(tmp_path / "q", model) == want
        assert model.read_bytes() != original
        digest = hashlib.sha256(original).hexdigest()
        manifest = json.loads((tmp_path / "q" / f"manifest_{command}.json").read_text("utf-8"))
        assert manifest["inputs"][str(model)] == digest
        if command == "similar":
            header, _ = mind.read_checkpoint(str(tmp_path / "q" / "news_index.bin"),
                                             b"NRECIDX2", "a news index")
            assert header["inputs"]["model"] == digest
            assert ((tmp_path / "q" / "news_index.bin").read_bytes()
                    == (tmp_path / "want" / "news_index.bin").read_bytes())

    def test_checkpoints_name_no_dtype(self, pipeline, tmp_path):
        """model.bin and embeddings.bin keep the float32 layout they had
        before the container could hold float64: no ``dtype`` in the header."""
        emb = str(tmp_path / "embeddings.bin")
        gl.save_embeddings_binary(emb, gl.load_embeddings(pipeline["embeddings"]))
        for path, magic in ((pipeline["model_bin"], mdl.MODEL_MAGIC), (emb, gl.BINARY_MAGIC)):
            blob = open(path, "rb").read()
            (size,) = struct.unpack_from("<I", blob, len(magic))
            header = json.loads(blob[len(magic) + 4:len(magic) + 4 + size])
            assert "dtype" not in header and header


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

    def test_any_category_name_gets_its_own_table(self, tmp_path, capsys):
        names = ["a/b", "a%2Fb", "x\0y", "health"]
        corpus = tmp_path / "tokenized.tsv"
        tp.save_tokenized(str(corpus), [
            tp.TokenizedNews(f"N{i}", cat, "sub", f"title {i}", "abstract", f"w{i}", "")
            for i, cat in enumerate(names)])
        out = tmp_path / "ana"
        assert cli.main(["analytics", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
        wordfreqs = sorted(f for f in os.listdir(out) if f.startswith("wordfreq_"))
        assert wordfreqs == ["wordfreq_a%252Fb.csv", "wordfreq_a%2Fb.csv",
                             "wordfreq_health.csv", "wordfreq_x%00y.csv"]
        assert (out / "wordfreq_a%2Fb.csv").read_text() == "token,count\nw0,1\n"
        payload = json.loads((out / "analytics.json").read_text())
        assert sorted(payload["word_frequencies"]) == sorted(names)
        assert "4 word tables" in capsys.readouterr().out

    def test_repeated_category_builds_one_table(self, pipeline, tmp_path, capsys):
        categories = sorted({item.category for item in tp.load_tokenized(pipeline["corpus"])})
        out = tmp_path / "ana"
        flags = [arg for cat in (categories[1], categories[0], categories[1])
                 for arg in ("--category", cat)]
        assert cli.main(["analytics", "--corpus", pipeline["corpus"], "--out-dir", str(out),
                         *flags]) == 0
        assert "2 word tables" in capsys.readouterr().out
        payload = json.loads((out / "analytics.json").read_text())
        assert list(payload["word_frequencies"]) == sorted(categories[:2])
        assert sorted(f for f in os.listdir(out) if f.startswith("wordfreq_")) == [
            f"wordfreq_{cat}.csv" for cat in sorted(categories[:2])]

    def test_category_too_long_for_a_file_name_exits_3_without_outputs(self, tmp_path,
                                                                         capsys):
        category = "c" * 300
        corpus = tmp_path / "tokenized.tsv"
        tp.save_tokenized(str(corpus), [
            tp.TokenizedNews("N1", category, "sub", "title", "abstract", "w", "")])
        out = tmp_path / "ana"
        assert cli.main(["analytics", "--corpus", str(corpus), "--out-dir", str(out)]) == 3
        assert f"category {category!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_top_k_below_one_exits_2_without_outputs(self, pipeline, tmp_path, capsys, top_k):
        out = tmp_path / "ana"
        assert cli.main(["analytics", "--corpus", pipeline["corpus"],
                         "--top-k", top_k, "--out-dir", str(out)]) == 2
        assert f"top_k must be >= 1, got {top_k}" in capsys.readouterr().err
        assert not out.exists()


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
