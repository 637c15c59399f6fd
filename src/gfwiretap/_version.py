"""The package version, and the header line that records it."""

import numpy as np
import scipy

__version__ = "0.1.0"


def versions_line() -> str:
    """The ``# versions:`` header line: this package's, numpy's and scipy's."""
    return (
        f"# versions: gfwiretap {__version__}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}\n"
    )
