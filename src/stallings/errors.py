"""Exception types shared across the package."""


class StallingsError(Exception):
    """Base class for all errors raised by this package."""


class UnknownGeneratorError(StallingsError):
    """A letter does not belong to the expected alphabet."""


class AlphabetMismatchError(StallingsError):
    """Two objects live over incompatible alphabets."""


class NotFoldedError(StallingsError):
    """The operation is only defined on folded graphs."""


class MissingBaseError(StallingsError):
    """The operation needs a base point (or a root) and the graph has none."""


class DisconnectedGraphError(StallingsError):
    """Graphs are assumed connected; a disconnected one was produced."""


class DegenerateHomError(StallingsError):
    """A homomorphism sends some generator to the identity."""


class NotIncludedError(StallingsError):
    """The first subgroup is not contained in the second."""


class TrivialSubgroupError(StallingsError):
    """The construction is undefined for the trivial subgroup."""


class TrivialGraphError(StallingsError):
    """The graph has no edges, so no circuit exists."""


class NotAmbiguousError(StallingsError):
    """Case splitting applies only to ambiguous injectivity cases."""


class EdgeNotMissingError(StallingsError):
    """The selected Whitehead edge is not missing from the restriction set."""


class InternalError(StallingsError):
    """A library invariant failed: a bug, not a property of the input."""
