"""Exception hierarchy shared by all cocmap modules.

Every data-level failure raises a subclass of :class:`CocmapError` so callers
(and the CLI) can distinguish bad input from programming errors, and can
render a module-qualified error name such as ``proximity.ZeroVarianceColumn``.
"""

from __future__ import annotations


class CocmapError(Exception):
    """Base class for all data and validation errors raised by cocmap."""

    #: short name of the module that owns this error, used in CLI rendering

    module = "cocmap"

    @property
    def qualified_name(self) -> str:
        return f"{self.module}.{type(self).__name__}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class CountOverflow(CocmapError):
    """A count is past its range: an input count past int64, or an affiliation past uint64."""

    module = "matrices"


# ---------------------------------------------------------------------------
# proximity
# ---------------------------------------------------------------------------

class ZeroVarianceColumn(CocmapError):
    """A column is constant, so Pearson correlation is undefined for it."""

    module = "proximity"

    def __init__(self, label: str):
        super().__init__(f"column {label!r} has zero variance")
        self.label = label


class ZeroNormColumn(CocmapError):
    """A column is entirely zero, so cosine similarity is undefined for it."""

    module = "proximity"

    def __init__(self, label: str):
        super().__init__(f"column {label!r} has zero norm")
        self.label = label


class OutOfRange(CocmapError):
    """An entry lies outside the admissible range for the operation."""

    module = "proximity"


class NegativeResult(CocmapError):
    """A similarity-to-dissimilarity conversion produced a negative distance."""

    module = "proximity"


# ---------------------------------------------------------------------------
# mds
# ---------------------------------------------------------------------------

class DegenerateInput(CocmapError):
    """All off-diagonal dissimilarities are zero; nothing to scale."""

    module = "mds"


class DimensionTooLarge(CocmapError):
    """Requested embedding dimension is not smaller than the point count."""

    module = "mds"


class DegenerateConfiguration(CocmapError):
    """A configuration has zero variance and cannot be aligned."""

    module = "mds"


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

class NoConvergence(CocmapError):
    """An iterative routine hit its sweep cap before converging."""

    module = "factor"


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

class MalformedLine(CocmapError):
    """An input line does not match the expected grammar."""

    module = "ingest"

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateDocId(CocmapError):
    """The same document id appears on more than one record line."""

    module = "ingest"

    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id {doc_id!r}")
        self.doc_id = doc_id


class NegativeCount(CocmapError):
    """An input line carries a negative occurrence count."""

    module = "ingest"

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class AsymmetricInput(CocmapError):
    """Both triangles of a square matrix are present but disagree."""

    module = "ingest"

    def __init__(self, i: int, j: int, delta: float):
        super().__init__(
            f"cells ({i},{j}) and ({j},{i}) differ by {delta:g}"
        )
        self.i = i
        self.j = j
        self.delta = delta


class LabelMismatch(CocmapError):
    """Row labels of a square matrix do not match its column header."""

    module = "ingest"


class UnknownDataset(CocmapError):
    """No bundled dataset with the requested name."""

    module = "ingest"
