"""Seeded byte-mutation fuzz of every command-line input.

Each input file of the small conftest corpus's pipeline is mutated a few
times per seed and fed to every command that reads it, through
``cli.main``.  A run must end in a documented exit code (0, 2, 3, 4 or
5) with nothing escaping ``cli.main``, every stderr line of a failing run
must start ``newsrec <command>:``, and no Python warning may reach the
user.  The seeds are fixed, so a failure names the seed that reproduces
it; a seed that found a defect stays, in ``FOUND``.  A seed stands for
its mutations only while ``mutate`` and the inputs stay as they are.
"""

import os
import random
import shutil
import traceback
import warnings

import pytest

import newsrec.cli as cli
import newsrec.retrieval as ret
import newsrec.textprep as tp

SEEDS = range(16)
# seeds beyond SEEDS that found a defect, kept as its regression
FOUND = {
    "config": [100],   # an unknown field holding a line break: a second stderr line
    "embeddings.bin": [55, 101, 179],   # numpy's overflow warnings, then exit 0
    "index": [119, 151],
    "model": [80],
}
EXIT_CODES = (0, 2, 3, 4, 5)
# byte strings a mutation inserts: separators, number edge cases, marks
# and encodings a reader must reject or accept as text
TOKENS = [b"\t", b"\n", b"\r\n", b"\r", b" ", b"\x00", b"\xff", b"\xef\xbb\xbf",
          b"\xe2\x80\xa8", b"nan", b"inf", b"-1", b"0", b"1e999", b"-0.0", b"99999999999",
          b'"', b"{", b"}", b"[", b"]", b",", b":", b"null", b"N1", b"U1", b"-", b"1-"]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to three random edits: a byte replaced, bytes
    overwritten by a token, a span cut, a token inserted, the tail cut
    off, or a line repeated.  The first two keep the length, and so the
    layout of a binary file."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.choices(range(6), weights=(3, 3, 1, 2, 1, 1))[0]
        pos = rng.randrange(len(buf) + 1)
        if op == 0 and buf:
            buf[min(pos, len(buf) - 1)] = rng.randrange(256)
        elif op == 1:
            token = rng.choice(TOKENS)
            buf[pos:pos + len(token)] = token
        elif op == 2:
            del buf[pos:pos + rng.randint(1, 16)]
        elif op == 3:
            buf[pos:pos] = rng.choice(TOKENS)
        elif op == 4:
            del buf[pos:]
        elif op == 5:
            lines = bytes(buf).splitlines(keepends=True)
            if lines:
                i = rng.randrange(len(lines))
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
                buf = bytearray(b"".join(lines))
    return bytes(buf)


@pytest.fixture(scope="module")
def stack(fixture_dir, tmp_path_factory, stopwords):
    """Paths of every input of the pipeline, built by ``cli.main`` with
    small trainer settings so a mutated run costs milliseconds."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"news": fixture_dir.news, "behaviors_train": fixture_dir.behaviors_train,
             "behaviors_test": fixture_dir.behaviors_test,
             "stopwords": str(root / "stop.txt"), "config": str(root / "run.json")}
    with open(paths["stopwords"], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{word}\n" for word in sorted(stopwords)[:20]))
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write('{"glove": {"dim": 4, "window": 3, "epochs": 2, "min_count": 1},\n'
                 ' "model": {"heads": 2, "d_head": 2, "d_attn": 4, "epochs": 1},\n'
                 ' "run": {"seed": 3}}\n')
    assert cli.main(["prepare", "--news", paths["news"], "--behaviors", paths["behaviors_train"],
                     "--out-dir", str(root / "prep")]) == 0
    paths["corpus"] = str(root / "prep" / "tokenized.tsv")
    # free text: a headline's words reversed, so no id or headline matches it
    paths["query"] = " ".join(reversed(tp.load_tokenized(paths["corpus"])[0].raw_title.split()))
    for fmt, name in (("text", "embeddings.txt"), ("binary", "embeddings.bin")):
        assert cli.main(["train-glove", "--corpus", paths["corpus"], "--config", paths["config"],
                         "--out-dir", str(root / fmt), "--format", fmt]) == 0
        paths[name] = str(root / fmt / name)
    assert cli.main(["train-model", "--corpus", paths["corpus"], "--config", paths["config"],
                     "--behaviors", paths["behaviors_train"], "--embeddings",
                     paths["embeddings.txt"], "--out-dir", str(root / "model")]) == 0
    paths["model"] = str(root / "model" / "model.bin")
    assert cli.main(["evaluate", "--corpus", paths["corpus"], "--embeddings",
                     paths["embeddings.txt"], "--model", paths["model"], "--behaviors",
                     paths["behaviors_test"], "--out-dir", str(root / "eval")]) == 0
    paths["index"] = str(root / "eval" / ret.INDEX_FILE)
    return paths


def commands(p: dict) -> dict:
    """Each command's argv (without ``--out-dir``) over the inputs ``p``."""
    inference = ["--corpus", p["corpus"], "--embeddings", p["embeddings.txt"],
                 "--model", p["model"]]
    return {
        "prepare": ["prepare", "--news", p["news"], "--behaviors", p["behaviors_train"],
                    "--stopwords", p["stopwords"], "--config", p["config"]],
        "stats": ["stats", "--news", p["news"], "--behaviors", p["behaviors_train"],
                  "--config", p["config"]],
        "train-glove": ["train-glove", "--corpus", p["corpus"], "--dim", "4", "--epochs", "1",
                        "--min-count", "1", "--config", p["config"]],
        "train-model": ["train-model", "--corpus", p["corpus"], "--embeddings",
                        p["embeddings.txt"], "--behaviors", p["behaviors_train"],
                        "--heads", "2", "--d-head", "2", "--d-attn", "4", "--epochs", "1"],
        "evaluate": ["evaluate", *inference, "--behaviors", p["behaviors_test"]],
        "evaluate-bin": ["evaluate", "--corpus", p["corpus"], "--embeddings",
                         p["embeddings.bin"], "--model", p["model"],
                         "--behaviors", p["behaviors_test"]],
        "recommend": ["recommend", *inference, "--user", "U1",
                      "--behaviors", p["behaviors_train"]],
        "recommend-history": ["recommend", *inference, "--history", "N1,N2,N3"],
        "similar": ["similar", *inference, "--query", p["query"], "--stopwords", p["stopwords"]],
        "analytics": ["analytics", "--corpus", p["corpus"]],
    }


# each input and the commands that read it
TARGETS = {
    "news": ["prepare", "stats"],
    "behaviors_train": ["prepare", "train-model", "recommend"],
    "behaviors_test": ["evaluate"],
    "corpus": ["train-glove", "train-model", "evaluate", "recommend-history", "similar",
               "analytics"],
    "embeddings.txt": ["train-model", "evaluate", "similar"],
    "embeddings.bin": ["evaluate-bin"],
    "model": ["evaluate", "recommend-history", "similar"],
    "config": ["prepare", "stats", "train-glove"],
    "stopwords": ["prepare", "similar"],
    "index": ["evaluate"],
}


def run_once(argv: list[str], capsys) -> tuple[int | None, str, list]:
    """(exit code or None if ``cli.main`` raised, stderr, warnings or the traceback)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except BaseException:   # anything escaping cli.main is the defect
            return None, capsys.readouterr().err, [traceback.format_exc()]
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mutated_input_ends_in_a_documented_exit(target, stack, tmp_path, capsys):
    with open(stack[target], "rb") as fh:
        clean = fh.read()
    failures = []
    for seed in [*SEEDS, *FOUND.get(target, [])]:
        rng = random.Random(f"{target}:{seed}")
        for name in TARGETS[target]:
            out = tmp_path / f"{seed}_{name}"
            inputs = dict(stack)
            if target == "index":
                # a mutated news_index.bin left in evaluate's --out-dir
                out.mkdir()
                inputs["index"] = str(out / ret.INDEX_FILE)
            else:
                inputs[target] = str(tmp_path / f"{seed}_{name}_{os.path.basename(stack[target])}")
            with open(inputs[target], "wb") as fh:
                fh.write(mutate(clean, rng))
            argv = commands(inputs)[name] + ["--out-dir", str(out)]
            code, err, trouble = run_once(argv, capsys)
            command = argv[0]
            bad_lines = [line for line in err.splitlines()
                         if not line.startswith(f"newsrec {command}:")]
            if code not in EXIT_CODES or trouble or (code and (not err or bad_lines)):
                failures.append(f"seed {seed}, {name}: exit {code}, stderr {err!r}, {trouble}")
            shutil.rmtree(out, ignore_errors=True)
    assert not failures, "\n".join(failures)
