"""Exception types shared across the package."""


class SpreadColorError(Exception):
    """Base class for all spreadcolor-specific failures."""


class StuckVertex(SpreadColorError):
    """Greedy coloring found a vertex whose available color set is empty."""


class CapExceeded(SpreadColorError):
    """An exact search exceeded its configured node budget."""


class VerificationFailed(SpreadColorError):
    """A constructed object failed its postcondition or in-flight invariant."""


class MaxTriesExceeded(SpreadColorError):
    """Rejection/resampling loop ran out of attempts."""


class HypothesisViolated(SpreadColorError):
    """An input failed a checked hypothesis; the message names the inequality."""


class NegativeR(HypothesisViolated):
    """Color surplus R = |Y| - |X| came out negative for a cluster matching."""


class EmptyChoiceSet(SpreadColorError):
    """A random selection step had nothing to choose from."""


class NoKeptSamples(SpreadColorError):
    """An audit had no unflagged samples to aggregate, so it could not pass."""
