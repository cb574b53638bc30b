"""``python -m stfe2d``: the command line of ``stfe2d.cli``."""

from .cli import main

raise SystemExit(main())
