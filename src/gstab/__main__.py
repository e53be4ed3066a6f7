"""`python -m gstab ...` runs the command-line front end (`gstab.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
