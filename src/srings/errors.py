"""Exception hierarchy shared by all modules."""


class SRingsError(Exception):
    """Base class for all errors raised by this package."""


class GroupSpecError(SRingsError, ValueError):
    """Invalid group description (duplicate prime, zero rank, bad string)."""


class ResourceBoundExceeded(SRingsError):
    """A configured bound (order, node budget, element budget) was hit.

    Carries enough context to report the failed computation instead of
    silently returning a wrong answer.
    """

    def __init__(self, what, limit, needed=None):
        self.what = what
        self.limit = limit
        self.needed = needed
        msg = f"{what}: bound {limit} exceeded"
        if needed is not None:
            msg += f" (needed {needed})"
        super().__init__(msg)


class PartitionError(SRingsError, ValueError):
    """A partition of a group fails one of the Schur ring axioms."""


class NotAPartition(PartitionError):
    pass


class IdentityNotACell(PartitionError):
    pass


class NotInverseClosed(PartitionError):
    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"cell {sorted(cell)} has no inverse cell")


class NotClosed(PartitionError):
    """Products of two cells are not constant on some cell.

    The witness is a tuple (X, Y, z, z2): z and z2 lie in one cell but
    have different numbers of representations as products from X and Y.
    """

    def __init__(self, witness):
        self.witness = witness
        x_cell, y_cell, z, z2 = witness
        super().__init__(
            f"product of cells {sorted(x_cell)} and {sorted(y_cell)} is not "
            f"constant on the cell of {z} (witness pair {z}, {z2})"
        )


class SchurMultiplierViolation(SRingsError):
    """A coprime power map sent a cell outside the partition."""


class SectionNotPreserved(SRingsError):
    """A map does not stabilize the section it was restricted to."""


class IncompatibleOnSection(SRingsError):
    """Wreath factors disagree on the common section: cell is a top cell,
    in G's coordinates, that does not project onto a quotient cell."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"top cell {sorted(cell)} does not project onto a "
                         f"cell of the quotient factor")


class PreconditionFailed(SRingsError):
    """A precondition of a constructive operation does not hold."""

    def __init__(self, stage, detail=""):
        self.stage = stage
        super().__init__(f"precondition failed at stage {stage!r}: {detail}")


class ClassificationMismatch(SRingsError):
    """An enumerated class does not match the expected template set."""


class EnumerationMismatch(SRingsError):
    """The raw rings counted for a class differ from the size of its
    Aut(G) orbit: the enumeration missed or repeated a ring."""


class CatalogFormatError(SRingsError):
    """Catalog file is corrupted or has the wrong version."""
