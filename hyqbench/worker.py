"""Child process of the benchmark: one fresh interpreter per set-up sample or run.

    worker.py setup --workload W --seed S --spawned-at T0
        import hyqent and generate the inputs, then print one JSON line with
        the set-up wall time since T0, the import and input-generation times.
    worker.py run --workload W --seed S --spawned-at T0 --seconds T
                  --min-ops M --repeats R [--ops N] [--trace-out PATH]
        the same set-up, then warm up on one op of each kind, draw whole
        cycles of timed ops until T/R seconds of op time and M ops have
        passed (or exactly N ops), time the same ops in R - 1 further passes,
        check every call's points, and print one JSON line.  Each call's time
        is also given at the reference host speed (see ``speed_probe``).  The
        peak RSS is read once the first M ops are done.

The parent sets PYTHONPATH to the checkout's ``src`` and pins BLAS to one
thread.  Only the standard library is imported before ``import hyqent`` is
timed.
"""

import argparse
import json
import resource
import statistics
import sys
import time


def _setup(workload, seed, spawned_at):
    t0 = time.perf_counter()
    import hyqent  # noqa: F401

    t1 = time.perf_counter()
    import numpy as np

    import workloads

    make_cycle = workloads.WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    warmup = make_cycle(np.random.default_rng([seed, 1]))
    cycles = [make_cycle(rng) for _ in range(workloads.ORACLE_CYCLES)]
    for cycle in cycles:
        for op in cycle:
            if op.oracle is not None:
                op.oracle()
    t2 = time.perf_counter()
    # CLOCK_MONOTONIC is system-wide, so this includes interpreter start
    times = {"setup_wall_s": time.monotonic() - spawned_at,
             "import_s": t1 - t0, "inputs_s": t2 - t1}
    return times, rng, warmup, cycles, make_cycle


# The host's speed drifts by up to 1.8x over seconds to minutes when other
# tenants load the machine.  A fixed probe of interpreter and small-array work,
# which uses nothing of hyqent, runs between timed calls; a call's time is
# rescaled to a host on which the probe takes PROBE_REF_S, so that parent and
# child commits measured at different moments compare.
PROBE_REF_S = 1e-3


def speed_probe():
    """Time a fixed mix of interpreter, small-array and LAPACK work (about 1 ms)."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(0.1, 1.0, 16)
    m = np.eye(6) + 0.1
    s = 0.0
    for k in range(120):
        s += float(np.exp(-x * (k * 1e-3)) @ x) + k % 7
        d = {"a": k, "b": s}
        s += len(str(d["a"]))
    for k in range(12):
        np.linalg.eigvalsh(m + (k * 1e-3) * np.eye(6))
    return time.perf_counter() - t0


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _cycles(pre_drawn, make_cycle, rng):
    """Pre-drawn cycles first, then new ones drawn from the same seeded stream."""
    yield from pre_drawn
    while True:
        yield make_cycle(rng)


def _run(args):
    setup, rng, warmup, pre_drawn, make_cycle = _setup(args.workload, args.seed,
                                                       args.spawned_at)

    warmed = set()
    for op in warmup:
        if op.kind in warmed:
            continue
        warmed.add(op.kind)
        try:
            op.run()
        except Exception:  # edge ops raise today; warm-up only fills lazy state
            pass

    tracer = None
    if args.trace_out:  # installed after the warm-up, so it records timed ops only
        import tracing

        tracer = tracing.Tracer()
        skipped = tracing.install(tracer)

    clock = time.perf_counter
    executions = 0  # timed calls, passes included
    points = failed = regular_failed = 0
    failures = {}
    gram_residual_max = 0.0
    probes = [speed_probe()]

    def timed(op):
        """Time one call of op and check its points.

        Returns the call's wall time, that time at the reference host speed,
        and the points that came out right.
        """
        nonlocal executions, points, failed, regular_failed, gram_residual_max
        if tracer is not None:
            tracer.op_id = executions
        executions += 1
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a raising point fails only its own op
            elapsed = clock() - t0
            bad = op.points
            key = f"{op.kind}: {type(exc).__name__}: {str(exc)[:80]}"
        else:
            elapsed = clock() - t0
            key = f"{op.kind}: missed reference"
            if tracer is not None:
                tracer.paused = True
            try:
                bad = op.verify(result)
            except Exception as exc:  # a result the check cannot read fails the op
                bad = op.points
                key = f"{op.kind}: unreadable result: {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        probes.append(speed_probe())
        # the probes just before and just after the call measure how fast the
        # host ran it
        reference = elapsed * PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        gram_residual_max = max(gram_residual_max, op.refs.get("gram_residual", 0.0))
        points += op.points
        failed += bad
        if bad:
            failures[key] = failures.get(key, 0) + bad
            if not op.edge:
                regular_failed += bad
        return elapsed, reference, op.points - bad

    # The first pass draws whole cycles until it has spent its share of the
    # time and done enough ops; the later passes time the same ops again, in
    # the same order, so the repeats of one op lie a pass apart.
    cycles, calls = [], []
    first_pass_s = 0.0
    max_rss_mb = None
    for cycle in _cycles(pre_drawn, make_cycle, rng):
        cycles.append(cycle)
        calls.append([[timed(op)] for op in cycle])
        first_pass_s += sum(c[0][0] for c in calls[-1])
        n = sum(len(c) for c in cycles)
        if max_rss_mb is None and n >= args.min_ops:
            # taken after a fixed amount of work, so memory a program retains
            # per op does not grow the figure when it runs more ops per second
            max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.ops is not None:
            if n >= args.ops:
                break
        elif first_pass_s * args.repeats >= args.seconds and n >= args.min_ops:
            break
    for _ in range(args.repeats - 1):
        for cycle, cycle_calls in zip(cycles, calls):
            for op, op_calls in zip(cycle, cycle_calls):
                op_calls.append(timed(op))

    # an op's latency is the mean of its repeats, at the reference speed
    op_s, wall_op_s, cycle_rates, wall_cycle_rates = [], [], [], []
    kinds = {}  # op kind -> its latencies
    for cycle, cycle_calls in zip(cycles, calls):
        ref = [statistics.fmean(c[1] for c in op_calls) for op_calls in cycle_calls]
        wall = [statistics.fmean(c[0] for c in op_calls) for op_calls in cycle_calls]
        good_points = sum(c[2] for op_calls in cycle_calls for c in op_calls) / args.repeats
        op_s.extend(ref)
        wall_op_s.extend(wall)
        # correct points per second of op time, one per cycle
        cycle_rates.append(good_points / sum(ref))
        wall_cycle_rates.append(good_points / sum(wall))
        for op, t in zip(cycle, ref):
            kinds.setdefault(op.kind, []).append(t)

    out = {
        **setup,
        "ops": len(op_s),
        "executions": executions,
        "op_s": op_s,
        "wall_op_s": wall_op_s,
        "cycle_rates": cycle_rates,
        "wall_cycle_rates": wall_cycle_rates,
        "repeats": args.repeats,
        "probe_ref_s": PROBE_REF_S,
        "probe_median_s": statistics.median(probes),
        "kinds": {k: [len(v), statistics.median(v)] for k, v in kinds.items()},
        "points": points,
        "failed": failed,
        "regular_failed": regular_failed,
        "failures": failures,
        "max_rss_mb": max_rss_mb,
        "versions": _versions(),
    }
    if tracer is not None:
        extra = {"compression.gram_residual_max": gram_residual_max,
                 "channels.thermal_kraus.peak_mb": tracing.kraus_peak_mb(tracer)}
        out["layers"] = tracing.layer_metrics(tracer, executions, extra)
        out["skipped"] = skipped
        tracing.dump(tracer, args.trace_out, {"workload": args.workload, "seed": args.seed,
                                              "ops": len(op_s), "repeats": args.repeats,
                                              "skipped": skipped})
    print(json.dumps(out), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before spawning")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup = _setup(args.workload, args.seed, args.spawned_at)[0]
        print(json.dumps(setup), flush=True)
    else:
        _run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
