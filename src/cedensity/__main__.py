"""``python -m cedensity``: the ``cedensity`` command line."""

import sys

from .cli import main

sys.exit(main())
