"""``python -m kersize``: the command-line front end, see ``kersize.cli``."""

import sys

from .cli import main

sys.exit(main())
