"""Tiny-load smoke check of the benchmark's own code.

    python3 hyqbench/smoke.py

Runs every workload once with ``--trace 0`` and once with ``--trace 1`` at the
smallest load (one cycle of ops) and asserts that each run exits 0, prints
every metric ``BENCHMARK.json`` names with its unit both as a text line and in
the final JSON line, and reports correct = true.  It also asserts that
``layers.json`` lists the same per-layer metrics as ``BENCHMARK.json`` and
that the benchmark refuses to run, with no result line, in a directory that
holds only ``BENCHMARK.json`` and ``hyqbench/``.  Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _check_run(spec, workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0.1", "--trace", str(trace), "--min-ops", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, (workload, trace)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (workload, trace)
    text = {line.split()[0]: line.split()[2] for line in lines[:-1]
            if not line.startswith("#") and len(line.split()) == 3}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)), (metric, got)
        assert text.get(metric["name"]) == metric["unit"], (workload, trace, metric["name"])
    print(f"ok  {workload:15s} trace={trace}  {len(wanted)} metrics", flush=True)


def _check_bare_directory():
    bare = ROOT / ".hyqbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "hyqbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "hyqbench/run.py", "--workload", "exact-grid", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok  bare directory refused", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert ([(m["name"], m["unit"], m["better"]) for m in layers["per_layer"]]
            == [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]])
    assert ([(m["name"], m["unit"], m["better"]) for m in layers["end_to_end"]]
            == [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]])
    _check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _check_run(spec, workload, trace)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
