"""Benchmark command for anop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (cli_session, exact_certify or refute_sampling) in this
single process: in-process calls, one caller, a closed loop, BLAS pinned to
one thread. The workload's fixed operation list runs once untimed (the
warm-up round), then in whole timed rounds until S seconds have passed.
The warm-up round's results are checked apart from the program once the
timed rounds are over, and every timed result must repeat its warm-up
result exactly. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
"""

import argparse
import gzip
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# fresh interpreters whose median import-plus-build time is setup_s; half
# run before the timed rounds and half after, so that one slow spell of the
# machine does not decide the median
SETUP_PROBES = 9
# latency_p90_ms needs at least ten operations beyond it
MIN_TIMED_OPS = 100


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def setup_probes(workload, seed, count):
    """Seconds of `import anop` plus building the inputs, each in a fresh
    interpreter."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def fingerprint(result):
    """The pickled form of one result (a few KB at most); every repeat of an
    operation must give the fingerprint of its warm-up result. (A hash would
    do, but importing hashlib alone adds 3.6 MB to peak_rss_mb.)"""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    return pickle.dumps(result)


def run_round(ops, latencies, tracer=None):
    """One pass over the operation list: its results, and its operations per
    wall-clock second."""
    clock = time.perf_counter
    results = []
    r0 = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:      # counted as a failed operation
            result = exc
        latencies.append(clock() - t0)
        results.append(result)
    return results, len(ops) / (clock() - r0)


def tally_round(ops, results, expected):
    """The failed operations of one timed round, and the names of those
    whose result differs from the warm-up round's (`expected` fingerprints)."""
    failed, differ = 0, []
    for op, result, want in zip(ops, results, expected):
        failed += op.failed(result)
        if fingerprint(result) != want:
            differ.append(op.name)
    return failed, differ


def check_results(ops, results):
    """Correctness errors of one round of results."""
    errors = []
    for op, result in zip(ops, results):
        if op.failed(result):
            if not op.hostile:
                errors.append(f"{op.name}: raised {result!r}")
            continue
        message = op.check(result)
        if message:
            errors.append(f"{op.name}: {message}")
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "anop", "__init__.py")):
        fail(f"no anop sources under {SRC}")
    spec = load_spec()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import anop
    if not os.path.abspath(anop.__file__).startswith(SRC + os.sep):
        fail(f"anop imported from {anop.__file__}, not from {SRC}")
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {list(workloads.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    clock = time.perf_counter
    try:
        setup_tracer = tracer = None
        if args.trace:
            setup_tracer, tracer = Tracer(), Tracer()
            setup_tracer.begin_round()
            setup_tracer.install()
        t0 = clock()
        inputs = workloads.build_inputs(args.workload, args.seed)
        setup_wall = clock() - t0
        if setup_tracer:
            setup_tracer.uninstall()
        ops = workloads.make_ops(args.workload, inputs, workdir)

        setup_times = [] if tracer else setup_probes(args.workload, args.seed,
                                                     SETUP_PROBES // 2)
        # the warm-up round, untimed; its results are the ones checked
        reference, _ = run_round(ops, [])
        expected = [fingerprint(r) for r in reference]
        latencies, rates, traced_rates = [], [], []
        failed, repeats_differ = 0, set()
        start = clock()
        while True:
            # a traced run alternates untraced and traced rounds
            traced = tracer is not None and len(rates) > len(traced_rates)
            if traced:
                tracer.begin_round()
                tracer.install()
            results, rate = run_round(ops, latencies, tracer if traced else None)
            if traced:
                tracer.uninstall()
            (traced_rates if traced else rates).append(rate)
            round_failed, differ = tally_round(ops, results, expected)
            failed += round_failed
            repeats_differ.update(differ)
            del results
            if clock() - start >= args.seconds and len(latencies) >= MIN_TIMED_OPS \
                    and (tracer is None or traced_rates):
                break
        # read before any check, so the oracle's allocations stay out of it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not tracer:
            setup_times += setup_probes(args.workload, args.seed,
                                        SETUP_PROBES - len(setup_times))
        errors = check_results(ops, reference)
        errors += [f"{name}: a repeat gave another result than the warm-up round"
                   for name in sorted(repeats_differ)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    for message in errors[:20]:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    if tracer:
        from anop.serialize import operator_to_json_dict
        names = [m["name"] for m in spec["per_layer"]]
        untraced, traced = statistics.median(rates), statistics.median(traced_rates)
        values = {"trace.ops_per_s_untraced": untraced,
                  "trace.ops_per_s_traced": traced,
                  "trace.overhead_pct": 100.0 * (untraced / traced - 1),
                  "setup.wall_ms": 1000.0 * setup_wall}
        values.update(tracer.metrics(
            [n for n in names if n not in values and not n.startswith("setup.")],
            operator_to_json_dict))
        values.update({"setup." + n: v for n, v in setup_tracer.metrics(
            [n[len("setup."):] for n in names if n not in values and n.startswith("setup.")],
            operator_to_json_dict).items()})
        with gzip.open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl.gz"),
                       "wt") as fh:
            setup_tracer.write(fh, "setup")
            tracer.write(fh)
        metric_specs = spec["per_layer"]
    else:
        lat_ms = sorted(1000.0 * x for x in latencies)
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10,
                                                   method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
        metric_specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations "
          f"attempted, {failed} failed, {len(errors)} check errors")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
