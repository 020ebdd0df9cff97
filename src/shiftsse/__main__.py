"""`python -m shiftsse`: the same command line as the `shiftsse` script."""

import sys

from .harness import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
