"""`python -m cyclicquad ...` runs the command line, as the `cyclicquad`
console script does, and exits with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
