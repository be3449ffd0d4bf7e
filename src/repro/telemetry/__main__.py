"""``python -m repro.telemetry``: flight-recorder replay / report / smoke."""

import sys

from repro.telemetry.cli import main

if __name__ == "__main__":
    sys.exit(main())
