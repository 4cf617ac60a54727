"""The synthetic fixture: default bytes, and what each noise option changes."""

import hashlib
from collections import Counter

import pytest

import newsrec.mind as mind
import newsrec.synth as synth
from newsrec.errors import ConfigError

# sha256 of the default fixture's files, as written before the noise options
# existed: options at their defaults draw nothing extra from the generator.
DEFAULT_DIGESTS = {
    "news": "89a1b82e24901e2594772297cbf37972558285348512d6bda52f06d4a7c8a816",
    "behaviors_train": "23955b2f8bd161ccfc0cc85d6a6b0ba22e6ad42a6b3f922963a386f89c9cf73e",
    "behaviors_test": "201093c34caa382bfde0180aa4e0413e0ce96aae7ed15a940bda6aa8f994f45b",
}
SMALL = dict(n_news=60, n_categories=3, n_users=12, n_impressions=120, seed=4)


def load(paths):
    articles, news_errors = mind.load_news(paths.news)
    logs = []
    for path in (paths.behaviors_train, paths.behaviors_test):
        part, errors = mind.load_behaviors(path)
        assert not errors
        logs += part
    assert not news_errors
    return {a.news_id: a for a in articles}, logs


def test_defaults_keep_the_bytes(tmp_path):
    paths = synth.generate_corpus(str(tmp_path))
    for name, digest in DEFAULT_DIGESTS.items():
        with open(getattr(paths, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_no_noise_plants_one_category_per_user(tmp_path):
    news, logs = load(synth.generate_corpus(str(tmp_path), **SMALL))
    for log in logs:
        (own,) = {news[nid].category for nid in log.history}
        assert [news[nid].category == own for nid, _ in log.candidates] == [
            label == 1 for _, label in log.candidates]


def test_negatives_from_any_category_are_distinct_and_never_the_click(tmp_path):
    news, logs = load(synth.generate_corpus(str(tmp_path), negatives_per_impression=10,
                                            negatives_any_category=True, **SMALL))
    own_category = 0
    for log in logs:
        ids = [nid for nid, _ in log.candidates]
        assert len(ids) == 11 and len(set(ids)) == 11
        assert sum(label for _, label in log.candidates) == 1
        own = news[log.history[0]].category
        own_category += sum(news[nid].category == own for nid, label in log.candidates
                            if label == 0)
    assert own_category > 0


def test_click_and_history_noise_draw_from_other_categories(tmp_path):
    news, logs = load(synth.generate_corpus(str(tmp_path), click_noise=0.5,
                                            history_noise=0.5, **SMALL))
    mixed = sum(len({news[nid].category for nid in log.history}) > 1 for log in logs)
    off_click = 0
    for log in logs:
        top = Counter(news[nid].category for nid in log.history).most_common(1)[0][0]
        off_click += any(label and news[nid].category != top for nid, label in log.candidates)
    assert mixed > len(logs) // 2 and off_click > len(logs) // 10


def test_shared_words_start_with_a_vowel(tmp_path):
    news, _ = load(synth.generate_corpus(str(tmp_path), shared_word_share=1.0, **SMALL))
    words = Counter(word.strip(".").lower() for item in news.values()
                    for word in f"{item.title} {item.abstract}".split())
    shared = [w for w in words if w[0] in "aeiou" and len(w) == 6]
    # only the shared pool and the filler stopwords remain
    assert 0 < len(shared) <= 60
    assert set(words) - set(shared) <= {"the", "to", "of", "a", "in", "for"}


@pytest.mark.parametrize("option", ["click_noise", "history_noise", "shared_word_share"])
@pytest.mark.parametrize("value", [-0.1, 1.5])
def test_share_outside_unit_interval_is_a_config_error(tmp_path, option, value):
    with pytest.raises(ConfigError, match=option):
        synth.generate_corpus(str(tmp_path), **{option: value})


def test_too_many_negatives_from_any_category_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="negatives_per_impression=60"):
        synth.generate_corpus(str(tmp_path), negatives_per_impression=60,
                              negatives_any_category=True, **SMALL)
