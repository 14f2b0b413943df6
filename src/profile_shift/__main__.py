"""``python3 -m profile_shift``: the command line of ``profile_shift.cli``."""

import sys

from .cli import main

sys.exit(main())
