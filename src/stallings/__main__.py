"""``python -m stallings``: run the command line front end."""

import sys

from .cli import main

sys.exit(main())
