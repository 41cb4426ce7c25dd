"""Make the benchmark's modules and the program under test importable."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from common import require_program  # noqa: E402

require_program()
