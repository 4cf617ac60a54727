"""Exception hierarchy shared by all newsrec modules.

The base classes carry the process exit code the CLI maps them to, so a
failing subcommand exits with a distinct, scriptable status per error
family (2 config, 3 input, 4 numeric, 5 degenerate data).
``check_field_types`` is the type check every config dataclass's
``validate`` runs first, so a mistyped value exits 2, not with a
traceback.
"""

import dataclasses
import numbers
import sys


class NewsrecError(Exception):
    exit_code = 1


class ConfigError(NewsrecError):
    """Invalid configuration value, flag, or config file."""

    exit_code = 2


def check_field_types(config) -> None:
    """Raise ConfigError for a field of the dataclass ``config`` whose value
    does not fit its ``int``, ``float`` or ``str`` annotation.

    An int field takes only integers in the int64 range, a float field any
    finite real number and a str field only a string; a bool is none of
    them.  None passes where the annotation allows it.
    """
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        kinds = str(field.type).split(" | ")
        if value is None and "None" in kinds:
            continue
        if "int" in kinds:
            want = "an integer in the int64 range"
            ok = isinstance(value, numbers.Integral) and -2**63 <= value < 2**63
        elif "float" in kinds:
            # not nan, an infinity or an int beyond the float range
            want = "a finite number"
            ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
        elif "str" in kinds:
            want, ok = "a string", isinstance(value, str)
        else:
            continue
        if isinstance(value, bool) or not ok:
            raise ConfigError(f"{field.name} must be {want}, got {value!r}")


class InputError(NewsrecError):
    """Missing or unusable input files."""

    exit_code = 3


class NumericError(NewsrecError):
    """Numerical failure during training or scoring."""

    exit_code = 4


class DegenerateDataError(NewsrecError):
    """Data that makes the requested operation undefined."""

    exit_code = 5


class MissingInput(InputError):
    pass


class NotAPermutation(NewsrecError):
    """Rank list is not a bijection over 1..k."""


class ShapeMismatch(NewsrecError):
    """Tensor or vector shapes are incompatible."""


class UnknownCategory(ConfigError):
    """Requested category does not occur in the corpus."""


class EmptyVocabulary(DegenerateDataError):
    pass


class NonfiniteParameter(NumericError):
    pass


class DivergedCost(NumericError):
    pass


class AllTokensRemoved(DegenerateDataError):
    pass


class NoKnownTokens(DegenerateDataError):
    pass


class EmptyHistory(DegenerateDataError):
    pass


class DegenerateLabels(DegenerateDataError):
    pass


class NoPositive(DegenerateDataError):
    pass


class AllDegenerate(DegenerateDataError):
    pass


class EmptyCorpus(DegenerateDataError):
    pass


class EmptyCandidatePool(DegenerateDataError):
    pass


class InsufficientNegatives(UserWarning):
    """Impression offers fewer negatives than requested; sampling falls
    back to replacement."""
