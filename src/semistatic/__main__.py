"""`python -m semistatic ...`, the module entry of the command line
(`semistatic.cli.main`).  The package imports `cli`, so running
`python -m semistatic.cli` would execute an already imported module again."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
