"""``python -m negdep``: the command-line front end (see negdep.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
