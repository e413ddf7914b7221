"""Exception types shared across the library.

Every loud failure mode has its own class so callers (and the scenario
runner) can tell a geometry bug from a truncation artifact from bad input.
"""


class SyslabError(Exception):
    """Base class for all library errors."""


class PreconditionViolated(SyslabError):
    """An operation was called outside its documented contract."""


class Unreachable(SyslabError):
    """No path within the search budget, or the graph is disconnected."""


class BoundaryUnsafe(SyslabError):
    """A metric query on a materialized window could be corrupted by truncation."""


class NotASimplex(SyslabError):
    """The given vertex set is not a clique of the complex."""


class ConstructionFailed(SyslabError):
    """Directed-geodesic projection produced an empty set or a non-clique."""


class ConditionViolated(SyslabError):
    """A constructed object failed its defining conditions on re-verification."""


class MalformedProfile(SyslabError):
    """A thin/thick layer profile that cannot come from a valid construction."""


class NoRealizingChain(SyslabError):
    """No thickness-realizing vertex selection closes into an embedded cycle."""


class NotFlat(SyslabError):
    """The enclosed region is not flat-verifiable (interior vertex test failed)."""


class MinDiskTimeout(SyslabError):
    """Exhaustive disk-filling search ran out of its triangle budget."""


class NoFilling(SyslabError):
    """No simplicial disk fills the cycle; the input is not null-homotopic here."""


class NotASimplexOfDisk(SyslabError):
    """The given simplex does not belong to the characteristic disk."""


class DegenerateDomain(SyslabError):
    """The modified disk collapsed to a segment where that is not handled."""


class NoCrossing(SyslabError):
    """The CAT(0) path does not cross a layer line exactly once."""


class NoSelection(SyslabError):
    """No vertex selection through the simplex sequence forms a geodesic."""


class NotTranslationLike(SyslabError):
    """The isometry does not act on the plane as a nonzero translation."""


class Inconclusive(SyslabError):
    """The window is too small to certify the answer."""


class NoStableSegment(SyslabError):
    """Truncated axis constructions never agreed on a central segment."""


class NotPlaneBacked(SyslabError):
    """The operation needs a complex materialized from the triangulated plane."""


class ScenarioParseError(SyslabError):
    """Scenario or complex file could not be parsed."""


class TaskFailed(SyslabError):
    """A scenario task failed an assertion; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
