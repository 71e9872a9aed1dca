"""``python -m monres``: the ``monres`` command line tool."""

import sys

from monres.cli import main

sys.exit(main())
