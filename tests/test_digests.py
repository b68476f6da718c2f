"""tools/digests.py prints one line of output digests per training workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digests_tool_prints_three_workload_lines(tmp_path):
    # As in the in-process suite, any warning is an error.
    out = subprocess.run([sys.executable, "-W", "error", str(ROOT / "tools" / "digests.py"),
                          "--size", "tiny", "--epochs", "1", "--seed", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["shallow-wide", "deep-layerwise",
                                                   "deep-nodrop"]
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{16} [0-9a-f]{16}", line), line
    assert list(tmp_path.iterdir()) == []
