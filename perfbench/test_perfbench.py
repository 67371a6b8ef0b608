"""Smoke tests of the benchmark itself, on reduced inputs."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, metrics
from perfbench.layers import legality_probe
from perfbench.run import check_passes
from perfbench.workloads import WORKLOADS, reduced

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_metrics_match_code():
    assert _declared("end_to_end") == {
        name: unit for name, unit, _ in metrics.END_TO_END}
    assert _declared("per_layer") == {
        name: unit for name, unit, _ in metrics.PER_LAYER}
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]}.items() \
        <= {name: w.why for name, w in WORKLOADS.items()}.items()


@pytest.mark.parametrize("workload,trace,kind", [
    ("pooled-warm", "0", "end_to_end"),
    ("paper-suite", "1", "per_layer"),
])
def test_every_metric_printed_with_unit(workload, trace, kind):
    done = _run("--workload", workload, "--trace", trace, "--reduced")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == _declared(kind)
    # The human-readable tables name every metric with its unit,
    # including the report-only ones.
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in list(_declared(kind).items()) + list(
            metrics.REPORT_ONLY):
        # pooled-warm runs neither HiDaP nor a reference flow.
        if name.endswith("_wl_norm") and workload == "pooled-warm":
            continue
        assert (name, unit) in printed, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "paper-suite", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.fixture(scope="module")
def clean_rows():
    from repro.api import RunOptions, run_suite

    workload = reduced(WORKLOADS["pooled-warm"])
    with legality_probe():
        result = run_suite(scale=workload.scale, designs=workload.designs,
                           flows=workload.flows,
                           options=RunOptions(seed=1, effort="fast"))
    cells = [f"{d}/{f}" for d in workload.designs for f in workload.flows]
    return workload, [checks.row_record(cell, row)
                      for cell, row in zip(cells, result.rows)]


@pytest.mark.parametrize("field,value", [
    ("wl_meters", math.nan),
    ("macro_overlap", 12.5),
    ("inside_die", False),
    ("grc_percent", 1e-3),     # finite and legal, but not the golden row
])
def test_corrupted_row_counts_as_failed(clean_rows, field, value,
                                        monkeypatch):
    workload, rows = clean_rows
    golden = [checks.golden_view(r) for r in rows]
    monkeypatch.setattr(checks, "load_golden", lambda *args: golden)
    passes = [{"rows": [dict(r) for r in rows]}]
    assert check_passes(workload, 1, passes)[:2] == (len(rows), 0)
    passes[0]["rows"][1][field] = value
    attempted, failed, messages = check_passes(workload, 1, passes)
    assert (attempted, failed) == (len(rows), 1)
    assert failed / attempted == pytest.approx(1 / len(rows))
    assert any("!= golden" in m for m in messages) \
        == (field in checks.ROW_FIELDS)
    assert all(rows[1]["cell"] in m for m in messages
               if "rows digest" not in m)


@pytest.mark.xfail(strict=True, reason="known defect: place_handfp returns "
                   "overlapping macros on tiny c2, so pooled-warm leaves "
                   "handfp-strip out; re-add it once this passes")
def test_handfp_strip_is_legal_on_tiny_c2():
    from repro.api import RunOptions, run_suite

    with legality_probe():
        result = run_suite(scale="tiny", designs=("c2",),
                           flows=("handfp-strip",),
                           options=RunOptions(seed=1, effort="fast"))
    record = checks.row_record("c2/handfp-strip", result.rows[0])
    assert checks.cell_problems(record) == []
