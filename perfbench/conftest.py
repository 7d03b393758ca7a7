"""Make the program (src/) and the benchmark modules importable for the benchmark's tests.

Run from the repository root: python -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
