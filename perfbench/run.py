"""Benchmark entry point: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload sweep-baselines --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics from spans around rlsched's public functions. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Results go to perfbench/out/ as well.
"""
from __future__ import annotations

import os

# numpy's OpenBLAS pool would otherwise spread the matmuls of training over
# every core; one thread keeps runs comparable on a shared machine. This has
# to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is timed in batches of at least this many repeats and this long:
# one batch before the first round and one after each round, so that the
# median spans the whole run and not one moment of a host whose speed drifts.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.1


def import_program():
    """Puts the checkout's rlsched first on the path; fails unless the
    rlsched found is the one in this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import rlsched
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rlsched from {ROOT / 'src'}: {exc}")
    if Path(rlsched.__file__).resolve().parent != ROOT / "src" / "rlsched":
        raise SystemExit(f"perfbench: rlsched was found at {rlsched.__file__}, "
                         f"not in {ROOT / 'src'}")


def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and any waited-for child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool) -> dict:
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS, Recorder

    OUT.mkdir(exist_ok=True)
    recorder = Recorder(seed)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        bench = WORKLOADS[name](seed, small, Path(scratch), recorder)
        bench.prepare()
        setup_times = []

        def time_setup():
            batch = []
            while len(batch) < SETUP_REPEATS or sum(batch) < SETUP_SECONDS:
                start = cpu_seconds()
                bench.setup()
                batch.append(cpu_seconds() - start)
                recorder.start_round()  # what set-up recorded is not kept
            setup_times.extend(batch)

        if trace:
            bench.setup()
        else:
            time_setup()

        def one_round():
            """(wall seconds, CPU seconds, result) of one round."""
            recorder.start_round()
            wall, cpu = time.perf_counter(), cpu_seconds()
            try:
                output = bench.run()
            except Exception as exc:  # the episodes left count as failed
                print(f"round raised {type(exc).__name__}: {exc}", file=sys.stderr)
                output = None
            wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
            return wall, cpu, bench.finish(output)

        rounds = []
        tracer = None
        if trace:
            _, reference_cpu, result = one_round()
            rounds.append(result)
            tracer = Tracer()
            tracer.install()
            bench.setup()  # traced once, for the checkpoint and generate spans
        walls, cpus, traced = [], [], []
        while sum(walls) < seconds or not walls:
            if tracer:
                tracer.start_round()
            wall, cpu, result = one_round()
            walls.append(wall)
            cpus.append(cpu)
            rounds.append(result)
            if tracer:
                traced.append(tracer.round_stats())
            else:
                time_setup()

        errors = [e for r in rounds for e in r.errors]
        if len({(r.steps, r.jobs_completed, tuple(r.costs)) for r in rounds}) > 1:
            errors.append("rounds of the same episodes ran differently")
        failures = [f for r in rounds for f in r.failures]
        last = rounds[-1]
        if tracer:
            overhead = statistics.median(cpus) / reference_cpu - 1.0
            metrics = per_layer_metrics(tracer, traced, overhead)
            tracer.write_spans(OUT / f"spans-{name}-seed{seed}.npz")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "steps_per_s": {"value": statistics.median(
                    last.steps / cpu for cpu in cpus), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
                "jobs_completed": {"value": last.jobs_completed, "unit": "jobs"},
                "slowdown_cost": {"value": statistics.fmean(last.costs)
                                  if last.costs else 0.0, "unit": "ratio"},
            }
    attempted = bench.planned * len(rounds)
    print(f"workload {name}  seed {seed}  rounds {len(walls)}  "
          f"episodes attempted {attempted}  failed {len(failures)}")
    for cause in sorted(set(failures)):
        print(f"  failed by {cause}: {failures.count(cause)}")
    print(f"  steps per wall second, by round: "
          f"{' '.join(f'{last.steps / w:.1f}' for w in walls)}")
    print(f"  CPU seconds per wall second: {sum(cpus) / sum(walls):.3f}")
    for metric, entry in metrics.items():
        print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    print(f"  correct: {not errors}")
    result = {"correct": not errors, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    kind = "trace" if trace else "result"
    with open(OUT / f"{kind}-{name}-seed{seed}.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-baselines", "train-conv16",
                                 "eval-conv32pool", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shorter episodes and rounds, for the tests")
    args = parser.parse_args(argv)
    import_program()

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.small)
        print(json.dumps(result))
        return 0

    # each workload in its own process, one after the other
    results = {}
    for name in ("sweep-baselines", "train-conv16", "eval-conv32pool"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
