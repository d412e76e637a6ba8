"""`python -m secgroups ARGS` runs the command line without installing."""

import sys

from .cli import main

sys.exit(main())
