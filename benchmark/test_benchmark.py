"""Short runs of every workload: each check passes, and the only failed
operations are the known faults named in README.md.

    python -m pytest benchmark/test_benchmark.py

Each run is two rounds (--seconds 1, the least a run makes), which take
up to a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KNOWN_FAULTS = {"build": {"known_fault:slow_algebraic_tail"},
                "query": {"known_fault:narrow_spike"},
                "stieltjes": set()}


def run(workload, trace=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def kind_table(stdout):
    """{kind: (count, failed)} from the per-kind table."""
    table = {}
    for line in stdout.splitlines():
        cols = line.split()
        if len(cols) == 4 and cols[1].isdigit() and cols[2].isdigit():
            table[cols[0]] = (int(cols[1]), int(cols[2]))
    return table


@pytest.mark.parametrize("workload", sorted(KNOWN_FAULTS))
def test_short_run(workload):
    out = run(workload)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    table = kind_table(out.stdout)
    assert {k for k, (_, failed) in table.items() if failed} == KNOWN_FAULTS[workload]
    # a known fault fails every time, and nothing else fails
    assert result["failed"] == sum(table[k][0] for k in KNOWN_FAULTS[workload])
    assert result["attempted"] == sum(count for count, _ in table.values())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer():
    out = run("query", trace=1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cfun.extremes.s"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run("query", cwd=tmp_path, script=tmp_path / "benchmark" / "run.py")
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_only_known_faults_count_as_failed():
    sys.path.insert(0, str(HERE))
    import run as bench

    def check(result, _):
        return "raised" if isinstance(result, Exception) else None
    tally = bench.Tally()
    tally.latency.append([])
    for known in (True, False):
        op = SimpleNamespace(kind=f"known={known}", known_fault=known, check=check)
        tally.record(op, 0.1, 0, RuntimeError("boom"), None)
    assert tally.failed == {"known=True": 1}
    assert tally.incorrect == ["known=False: raised"]
