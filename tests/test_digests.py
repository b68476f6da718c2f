"""tools/digests.py prints one line of output digests per benchmark workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(cwd, *args):
    """stdout of a digests.py run; as in the in-process suite, any warning
    is an error."""
    out = subprocess.run([sys.executable, "-W", "error", str(ROOT / "tools" / "digests.py"),
                          *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


def test_digests_tool_prints_workload_and_report_lines(tmp_path):
    stdout = digests(tmp_path, "--size", "tiny", "--epochs", "1", "--seed", "1")
    # The three training workloads' lines, the spectral workload's, then the
    # probe's and each ablation's, with one digest per arm.
    lines = stdout.splitlines()
    expected = {"shallow-wide": 2, "deep-layerwise": 2, "deep-nodrop": 2, "spectral": 3,
                "probe": 1, "dropout-vs-dropedge": 4, "layerwise": 2}
    assert [line.split()[0] for line in lines] == list(expected)
    for line, (name, n) in zip(lines, expected.items()):
        assert re.fullmatch(re.escape(name) + r"( [0-9a-f]{16}){%d}" % n, line), line
    assert list(tmp_path.iterdir()) == []


def test_spectral_line_matches_the_benchmark_ops(tmp_path):
    # digests.py prints the digests of perfbench's own spectral operations,
    # so a tiny spectral benchmark run shows the same three at the same seed.
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                          "spectral", "--size", "tiny", "--seconds", "0", "--seed", "3"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    ops = dict(re.findall(r"^op (\w+) .* digest=([0-9a-f]{16}) ok$", out.stdout, re.M))
    line = digests(tmp_path, "--size", "tiny", "--epochs", "1", "--seed", "3").splitlines()[3]
    assert line.split() == ["spectral", ops["analyze"], ops["trajectory"], ops["resistance"]]
