"""Shared exception and warning types."""


class CapacityError(RuntimeError):
    """A size cap was exceeded (exact counts, probe system, link budget, graph size)."""


class EdgeListFormatError(ValueError):
    """An edge-list stream could not be parsed; the message names the offending line."""


class ConnectivityWarning(UserWarning):
    """A degree-based approximation was applied to a disconnected graph.

    The formulas stay well defined, but their derivation assumes the graph
    can be connected, so treat the result with care.
    """
