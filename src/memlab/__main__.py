"""``python -m memlab run config.json ...``: the ``memlab`` console script
without needing it on PATH."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
