"""tools/digests.py prints one line of output digests per benchmark workload."""

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
    # The three training workloads' lines, then the spectral workload's.
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["shallow-wide", "deep-layerwise",
                                                   "deep-nodrop", "spectral"]
    for line in lines[:3]:
        assert re.fullmatch(r"\S+ [0-9a-f]{16} [0-9a-f]{16}", line), line
    assert re.fullmatch(r"spectral [0-9a-f]{16} [0-9a-f]{16} [0-9a-f]{16}", lines[3]), lines[3]
    assert list(tmp_path.iterdir()) == []
