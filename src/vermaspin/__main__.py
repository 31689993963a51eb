"""``python -m vermaspin``: the same command-line interface as ``vermaspin``."""

from .cli import main

raise SystemExit(main())
