"""What a user pays before the first iteration: a fresh interpreter imports
fwlab, then parses and validates every spec file in the given directory.

    python3 bench/setup_probe.py SPEC_DIR

run.py times whole launches of this script.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fwlab  # noqa: E402

for path in sorted(Path(sys.argv[1]).glob("*.json")):
    fwlab.validate_spec(fwlab.load_spec(path))
