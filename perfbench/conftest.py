"""Make the program and the benchmark importable for the self-tests.

Run them from the repository root with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
