"""hyqent benchmark: one seeded workload per call, end-to-end or per-layer metrics.

    python3 hyqbench/run.py --workload exact-grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` with no
install step.  Each figure comes from fresh single-threaded child processes
(``worker.py``) with BLAS pinned to one thread:

  --trace 0   two set-up children and one run child; prints points_per_s,
              op_ms_p50, op_ms_p90, setup_s, peak_rss_mb and fail_ratio.
  --trace 1   the same set-up children, a ``-X importtime`` child, an untraced
              run child and a traced run child over the same ops, seed and
              sizes; prints every per-layer metric of ``layers.json`` and
              writes the spans and the per-layer table to ``.hyqbench_out/``.

Every point is checked against its reference in the same run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; ``attempted`` and ``failed`` count points.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".hyqbench_out"
WORKLOADS = ("exact-grid", "wide-span", "moment-witness", "fock-oracle")
SETUP_CHILDREN = 2
# each op is timed this many times, in as many passes over the run's ops, and
# its latency is the mean of them, rescaled to the reference host speed
REPEATS = 2
# every child shares this budget, so the whole run ends within 180 s
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _spawn(argv, deadline, capture_stderr=False):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the next child started")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=_child_env(), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if capture_stderr else None,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child {argv[1:4]} exceeded the time budget") from exc
    if done.returncode != 0:
        raise BenchError(f"child {argv[1:4]} exited with code {done.returncode}")
    return done


def _worker(mode, args, deadline, *extra):
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), *extra, "--spawned-at", repr(time.monotonic())]
    lines = _spawn(argv, deadline).stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child printed nothing")
    return json.loads(lines[-1])


def _scipy_import_s(deadline):
    """scipy's share of ``import hyqent``: summed self times of scipy modules."""
    argv = [sys.executable, "-X", "importtime", "-c", "import hyqent"]
    total_us = 0
    for line in _spawn(argv, deadline, capture_stderr=True).stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if fields[0].isdigit() and (fields[2] == "scipy" or fields[2].startswith("scipy.")):
            total_us += int(fields[0])
    return total_us / 1e6


def _run_args(args, *extra):
    return ("--seconds", repr(args.seconds), "--min-ops", str(args.min_ops),
            "--repeats", str(REPEATS), *extra)


def _latency(op_s, cycle_rates):
    op_ms = [s * 1e3 for s in op_s]
    p90 = statistics.quantiles(op_ms, n=10, method="inclusive")[8]
    return statistics.median(cycle_rates), statistics.median(op_ms), p90, op_ms


def end_to_end(run, setup_walls):
    rate, p50, p90, op_ms = _latency(run["op_s"], run["cycle_rates"])
    metrics = {
        "points_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (run["max_rss_mb"], "MB"),
        "fail_ratio": (run["failed"] / run["points"], "ratio"),
    }
    beyond = sum(1 for v in op_ms if v > p90)
    wall_rate, wall_p50, wall_p90, _ = _latency(run["wall_op_s"], run["wall_cycle_rates"])
    notes = [f"op latency samples: {len(op_ms)} ops of {run['repeats']} timed calls each, "
             f"{beyond} beyond p90; throughput samples: {len(run['cycle_rates'])} cycles; "
             f"setup samples: {len(setup_walls)} fresh interpreters",
             f"op times are at the reference host speed (speed probe = "
             f"{run['probe_ref_s'] * 1e3:g} ms; median probe here "
             f"{run['probe_median_s'] * 1e3:.4f} ms); wall time: points_per_s "
             f"{wall_rate:.6g}, op_ms_p50 {wall_p50:.6g}, op_ms_p90 {wall_p90:.6g}"]
    return metrics, notes


def per_layer(args, run, traced, setups, scipy_s, layer_specs):
    values = dict(traced["layers"])
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.import_scipy_s"] = scipy_s
    values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
    values["trace.overhead_ratio"] = sum(traced["op_s"]) / sum(run["op_s"]) - 1.0
    metrics = {spec["name"]: (float(values.get(spec["name"], 0.0)), spec["unit"])
               for spec in layer_specs}
    notes = [f"traced ops: {traced['ops']} (untraced run: {run['ops']})"]
    if traced.get("skipped"):
        notes.append("not traced (absent from the package): " + ", ".join(traced["skipped"]))
    table = {"workload": args.workload, "seed": args.seed, "ops": traced["ops"],
             "trace.overhead_ratio": values["trace.overhead_ratio"],
             "layers": [{**spec, "value": metrics[spec["name"]][0]} for spec in layer_specs]}
    table_path = OUT_DIR / f"{args.workload}-seed{args.seed}.layers.json"
    table_path.write_text(json.dumps(table, indent=1) + "\n")
    notes.append(f"per-layer table: {table_path.relative_to(ROOT)}; spans: "
                 f"{table_path.relative_to(ROOT).with_suffix('').with_suffix('.spans.jsonl')}")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-ops", type=int, default=100,
                        help="fewest timed ops per run (the smoke check lowers it)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyqent" / "__init__.py").is_file():
        print(f"error: no hyqent package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    layer_specs = json.loads((HERE / "layers.json").read_text())["per_layer"]
    try:
        setups = [_worker("setup", args, deadline) for _ in range(SETUP_CHILDREN)]
        run = _worker("run", args, deadline, *_run_args(args))
        setup_walls = [s["setup_wall_s"] for s in setups] + [run["setup_wall_s"]]
        correct = run["regular_failed"] == 0
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            scipy_s = _scipy_import_s(deadline)
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            traced = _worker("run", args, deadline,
                             *_run_args(args, "--ops", str(run["ops"]), "--trace-out", str(spans)))
            correct = correct and traced["regular_failed"] == 0
            metrics, notes = per_layer(args, run, traced, setups, scipy_s, layer_specs)
        else:
            metrics, notes = end_to_end(run, setup_walls)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    v = run["versions"]
    print(f"# hyqbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} blas_threads=1")
    for note in notes:
        print(f"# {note}")
    print(f"# points: {run['points']} attempted, {run['failed']} failed "
          f"({run['regular_failed']} outside the known-defect edge points)")
    for key, count in sorted(run["failures"].items()):
        print(f"#   {count:6d}  {key}")
    print("# op kinds (ops, median ms):")
    for kind, (count, median_s) in sorted(run["kinds"].items(), key=lambda kv: kv[1][1]):
        print(f"#   {count:6d}  {median_s * 1e3:10.3f}  {kind}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["points"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
