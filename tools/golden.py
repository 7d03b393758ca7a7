"""Rewrite tests/golden_outputs.json, the digests of every CLI command's outputs.

tests/golden.py says which commands run on which frames and how a digest is made;
tests/test_golden.py names the digests that differ from the file.

Usage: python tools/golden.py --write
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden  # noqa: E402


def main() -> int:
    if sys.argv[1:] != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        golden.write(Path(tmp))
    print(f"wrote {golden.GOLDEN_PATH.relative_to(ROOT)} under {golden.environment()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
