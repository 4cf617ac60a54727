"""Porter suffix-stripping stemmer.

Implements the classic five-step rule set over lowercase ASCII-ish
tokens.  Rules within a step are tried in order and the first matching
suffix decides the step: if its measure condition fails, the word leaves
the step unchanged.  Words of length <= 2 are returned as-is.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions ([C](VC)^m[V])."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


# (suffix, replacement) pairs in step order; a longer suffix comes before
# any suffix it ends with.
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al",
    "ance",
    "ence",
    "er",
    "ic",
    "able",
    "ible",
    "ant",
    "ement",
    "ment",
    "ent",
    "ion",
    "ou",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
)


def _by_ending(suffixes) -> tuple[tuple[str, ...], tuple[int, ...], dict[str, str]]:
    """A step's suffixes, keyed by the endings a word is looked up by:
    the suffixes, their lengths longest first, and ``table``.

    Two suffixes that one word ends with end one another, so the suffixes
    a word ends with all end the longest of them, ``s``.  ``table[s]`` is
    the first suffix in step order that ends ``s``: the step's first match
    for every word whose longest matching suffix is ``s``."""
    table = {s: next(t for t in suffixes if s.endswith(t)) for s in suffixes}
    return tuple(suffixes), tuple(sorted({len(s) for s in table}, reverse=True)), table


def _first_match(word: str, endings) -> str | None:
    """The first suffix in step order that ``word`` ends with, or None.
    One C-level ``endswith`` passes over the many words no suffix fits."""
    suffixes, lengths, table = endings
    if not word.endswith(suffixes):
        return None
    for n in lengths:
        suffix = table.get(word[-n:])
        if suffix is not None:
            return suffix
    return None


_STEP2 = _by_ending([suffix for suffix, _ in _STEP2_RULES]), dict(_STEP2_RULES)
_STEP3 = _by_ending([suffix for suffix, _ in _STEP3_RULES]), dict(_STEP3_RULES)
_STEP4 = _by_ending(_STEP4_SUFFIXES)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    stripped = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _apply_table(word: str, step) -> str:
    """Step 2 or 3: the step's first matching rule, looked up by the
    word's endings, replaces its suffix if the stem's measure is > 0."""
    endings, replacements = step
    suffix = _first_match(word, endings)
    if suffix is None:
        return word
    stem = word[: -len(suffix)]
    return stem + replacements[suffix] if _measure(stem) > 0 else word


def _step4(word: str) -> str:
    suffix = _first_match(word, _STEP4)
    if suffix is None:
        return word
    stem = word[: -len(suffix)]
    if _measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(token: str) -> str:
    """Stem one lowercase token. Deterministic and total."""
    if len(token) <= 2:
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_table(word, _STEP2)
    word = _apply_table(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
