"""Exception types shared across the package."""


class QnasError(Exception):
    """Base class for all qnas-specific errors."""


class _IndexedError(QnasError):
    """An error about some stations or classes, kept as a tuple in attribute
    `_attr`; the message lists them after `_prefix`."""

    def __init__(self, indices):
        indices = tuple(indices)
        setattr(self, self._attr, indices)
        super().__init__("%s: %s" % (self._prefix, list(indices)))


class OverloadedStation(_IndexedError):
    """A station's per-instance utilization is at or above 1, so residence
    times (and demand estimation) are undefined there."""

    _attr, _prefix = "stations", "overloaded station(s)"


class InfeasibleConfiguration(_IndexedError):
    """A target configuration is at or below the capacity floor on at least
    one station that carries load."""

    _attr, _prefix = "stations", "configuration at or below capacity floor on station(s)"


class UnattainableSla(_IndexedError):
    """A response-time threshold lies at or below the asymptotic lower bound
    of the model, so no finite configuration can satisfy it."""

    _attr, _prefix = "classes", "SLA threshold unattainable for class(es)"


class IterationCap(QnasError):
    """Safety cap on planner iterations exceeded."""


class ConfigError(QnasError):
    """Invalid or incomplete configuration file."""
