"""Shared exception types: configuration errors and failed in-run checks."""


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


class CheckFailure(RuntimeError):
    """A quantitative in-run assertion (contraction, bound, oracle) failed."""
