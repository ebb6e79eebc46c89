"""Shared exception type: configuration errors."""


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""
