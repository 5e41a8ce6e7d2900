"""``python -m tools.check src/repro`` — run the project checker."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
