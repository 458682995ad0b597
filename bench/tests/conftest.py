"""``python -m pytest bench/tests -q`` (outside tier-1: the repo's
``testpaths`` is ``tests``).  Puts the repo root and ``src`` on the path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
