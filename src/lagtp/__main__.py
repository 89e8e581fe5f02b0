"""``python -m lagtp``: the ``lagtp`` command line, for a checkout on PYTHONPATH."""

from .cli import main

raise SystemExit(main())
