"""The package version, and the header line that records it."""

import numpy as np

__version__ = "0.1.0"


def versions_line() -> str:
    """The text of the ``# versions:`` header line.  scipy's version is read
    from its installed metadata: nothing in the package imports scipy."""
    from importlib.metadata import version  # only the CLI needs it

    return (
        f"versions: gfwiretap {__version__}, numpy {np.__version__}, "
        f"scipy {version('scipy')}"
    )
