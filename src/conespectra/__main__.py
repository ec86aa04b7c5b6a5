"""``python -m conespectra``: the same command line as the ``conespectra`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
