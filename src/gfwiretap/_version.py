"""The package version, and the header line that records it."""

import numpy as np

__version__ = "0.1.0"


def versions_line() -> str:
    """The text of the ``# versions:`` header line: the package and numpy,
    its one dependency."""
    return f"versions: gfwiretap {__version__}, numpy {np.__version__}"
