"""Benchmark of ofdmsee: end-to-end timings, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload link-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload in this process (or, with --workload all, each workload in a
fresh process, one after another), checks its outputs and prints each metric
by name with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are end to end: setup_s (median over several fresh
processes of importing ofdmsee and building the inputs), wall_s (median time
of one round of the workload's operations) and peak_rss_mb (high-water
resident set of this process). With --trace 1 the run wraps the program's
layers (see tracer.py), runs exactly one round and reports per-layer metrics;
its spans are written to perfbench/out/.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("link-grid", "pas-frontier", "mc-validate")
# set-ups measured per run: this process plus fresh ones that only set up
SETUP_SAMPLES = 3
# a run attempts whole rounds within this many seconds (or the --seconds
# given); kept in step with BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def set_up(name, seed):
    """Import ofdmsee from this checkout and build the workload's inputs.

    Returns (seconds taken, workloads module, inputs).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ofdmsee

    if Path(ofdmsee.__file__).resolve().parent != ROOT / "src" / "ofdmsee":
        raise SystemExit(f"ofdmsee imported from {ofdmsee.__file__}, not from {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    inputs = workloads.WORKLOADS[name].build(seed)
    return time.perf_counter() - t0, workloads, inputs


def setup_in_fresh_process(args):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, inputs, seconds, tracer=None):
    """Whole rounds within `seconds`, at least one; a traced run makes one.

    A round is not started if, taking as long as the last one, it would end
    after `seconds`. Spans of one operation share the tracer's operation id.
    """
    if tracer is None:
        def mark(op):
            pass
    else:
        def mark(op):
            tracer.op = op
    rounds = []
    t_start = time.perf_counter()
    for k in range(workload.rounds(inputs)):
        rounds.append(workload.run_round(inputs, k, mark))
        if tracer is not None or time.perf_counter() - t_start + rounds[-1].elapsed_s > seconds:
            break
    return rounds


def run_one(args):
    setup_s, workloads, inputs = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    from perfbench.reference import reference_se

    workload = workloads.WORKLOADS[args.workload]
    metrics = {}
    if args.trace:
        from perfbench.tracer import Tracer, layer_metrics

        tracer = Tracer()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        with tracer.installed():
            rounds = run_rounds(workload, inputs, args.seconds, tracer)
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        metrics.update(layer_metrics(tracer, reference_se))
        metrics["cli.bytes_written"] = {"value": sum(r.bytes_written for r in rounds), "unit": "B"}
        metrics["proc.cpu_user_s"] = {"value": usage1.ru_utime - usage0.ru_utime, "unit": "s"}
        metrics["proc.cpu_sys_s"] = {"value": usage1.ru_stime - usage0.ru_stime, "unit": "s"}
        metrics["proc.minor_faults"] = {"value": usage1.ru_minflt - usage0.ru_minflt, "unit": "count"}
        metrics["trace.wall_s"] = {"value": sum(r.elapsed_s for r in rounds), "unit": "s"}
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        rounds = run_rounds(workload, inputs, args.seconds)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["wall_s"] = {"value": statistics.median(r.elapsed_s for r in rounds), "unit": "s"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    errors = workload.check(inputs, rounds, reference_se)
    failures = [f for r in rounds for f in r.failures]
    for line in failures + errors:
        print(line, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
