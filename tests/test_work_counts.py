"""``scripts/count_calls.py`` counts, per ``verify`` criterion at seed 0, the
calls to the functions that carry the cost.  The counts are deterministic,
so a change of work shows as a diff of ``tests/golden/verify_seed0.counts.json``:
the file is a record, regenerated on purpose with

    python3 scripts/count_calls.py > tests/golden/verify_seed0.counts.json

and not a bound."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "count_calls.py"
RECORD = ROOT / "tests" / "golden" / "verify_seed0.counts.json"


def test_counts_match_the_record():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True, capture_output=True,
                         text=True, timeout=600).stdout
    assert out == RECORD.read_text(encoding="utf-8")

