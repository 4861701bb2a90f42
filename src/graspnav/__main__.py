"""``python -m graspnav``: the same command line as the ``graspnav`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
