"""Put the benchmark modules and the program source on ``sys.path``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from common import require_source  # noqa: E402

require_source()
