"""The package version, and the header line that records it."""

import numpy as np

__version__ = "0.1.0"


def versions_line() -> str:
    """The ``# versions:`` header line: this package's, numpy's and scipy's.

    scipy is imported here, not at module level: nothing else in the package
    uses it, and importing it would double the package's start-up time.
    """
    import scipy

    return (
        f"# versions: gfwiretap {__version__}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}\n"
    )
