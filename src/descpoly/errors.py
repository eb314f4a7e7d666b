"""The two errors the command line gives exit codes of their own.

Every module that raises one imports it from here; ``bijection`` and
``families`` keep their old names for them, as the same classes.
"""


class InvariantError(AssertionError):
    """A claim of the case analysis or a map's post-condition failed.

    A subclass of AssertionError, so code that catches failed assertions
    catches it too; it is raised explicitly, so ``python -O`` keeps it.
    """


class ResourceCapError(ValueError):
    """Raised for a request past a fixed resource cap: enumeration past
    ``BRUTE_FORCE_CAP``, or an rc-index past its ceiling."""
