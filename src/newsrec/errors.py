"""Exception hierarchy shared by all newsrec modules.

The base classes carry the process exit code the CLI maps them to, so a
failing subcommand exits with a distinct, scriptable status per error
family (2 config, 3 input, 4 numeric, 5 degenerate data).
"""


class NewsrecError(Exception):
    exit_code = 1


class ConfigError(NewsrecError):
    """Invalid configuration value, flag, or config file."""

    exit_code = 2


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
