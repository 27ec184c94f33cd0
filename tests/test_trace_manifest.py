"""Every hermetic trace, CLI output file and benchmark dataset keeps its
bytes: `scripts/trace_manifest.py` hashes them, and its lines must equal
`tests/golden/trace_manifest.txt`.

The script runs in a subprocess because it pins BLAS to one thread before
numpy loads. A change that moves trace bytes on purpose regenerates the
golden file with `python3 scripts/trace_manifest.py`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "trace_manifest.txt"
SCRIPT = ROOT / "scripts" / "trace_manifest.py"


def _by_label(lines):
    """`<label> seed=<n>` -> sha256 of each manifest line."""
    return dict(line.rsplit(" ", 1) for line in lines)


def test_trace_manifest_matches_the_golden_file():
    recorded, *golden = GOLDEN.read_text().splitlines()
    result = subprocess.run([sys.executable, str(SCRIPT)],
                            capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stderr
    running, *lines = result.stdout.splitlines()
    if running != recorded:
        pytest.skip(f"the golden manifest was made under '{recorded}' and "
                    f"this is '{running}', so its hashes cannot be compared "
                    f"here; this skip is not a pass")
    want, got = _by_label(golden), _by_label(lines)
    moved = [label for label in want if got.get(label) != want[label]]
    moved += [label for label in got if label not in want]
    assert not moved, (f"{len(moved)} manifest lines moved: "
                       + ", ".join(moved))
    assert lines == golden  # same lines, in the same order
