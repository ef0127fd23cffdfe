"""``python -m conflearn``: the same command line as the ``conflearn`` script."""

import sys

from .cli import main

sys.exit(main())
