"""Time one emogen workload end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload desk_matrix --seed 1 --seconds 20 --trace 0

Runs in this one process: it starts no subprocess or thread. It imports
``emogen`` from ``src/`` next to this directory, builds the workload's
inputs from --seed, runs whole rounds of the workload until the next round
would pass --seconds (at least one), checks the outputs, and prints one JSON
object as the last line of stdout. Logs go to stderr. Working files live in
a temporary directory under ``perfbench/out/`` that is removed on every exit
path; a traced run also leaves ``perfbench/out/trace-<workload>-<seed>.json``.
"""

import time

# The process's start on the perf_counter clock: the interpreter's start-up,
# everything before this line, is single-threaded and CPU-bound, so the CPU
# time used so far is its wall time.
_STARTED = time.perf_counter() - time.process_time()

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread and quiet logs, fixed before numpy is first imported.
os.environ["EMOGEN_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["EMOGEN_LOG"] = "WARNING"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_matrix", "generate_long", "train_small"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run_rounds(workload, seconds: float) -> tuple[list[float], float, bool]:
    """Whole rounds until the next one would end after ``seconds``; at least one.

    Returns the round times, the peak RSS in MB at the end of the first
    round, and whether the last round raised. The peak is what one
    invocation of the workload holds; later rounds can only raise the mark
    through allocator fragmentation, by steps that depend on how many rounds
    fit in ``seconds``. A round that raises ends the loop: its traceback
    goes to stderr and all of its operations count as failed.
    """
    times: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            workload.round()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - t)
            return times, _peak_rss_mb(), True
        times.append(time.perf_counter() - t)
        if len(times) == 1:
            peak_rss_mb = _peak_rss_mb()
        if time.perf_counter() - start + max(times) > seconds:
            return times, peak_rss_mb, False


def measure(workload, workdir: Path, seed: int, seconds: float, trace: bool):
    """Set up, run and check one workload. Returns (result dict, trace table).

    ``setup_s`` runs from the process's start to the end of set-up, so it
    counts the interpreter's start, the imports and the workload's set-up.
    """
    from bench_trace import HypothesisCapture, Tracer

    workload.setup(workdir, seed)
    setup_s = time.perf_counter() - _STARTED
    tracer = Tracer() if trace else None
    with HypothesisCapture() as capture:
        if tracer is not None:
            tracer.install()
        try:
            times, peak_rss_mb, raised = run_rounds(workload, seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    rounds = len(times)
    if raised:
        failures = [f"round {rounds} raised, so its outputs were not checked"]
    else:
        failures = workload.check(capture.ids)
    run_s = statistics.median(times)
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        table = None
    else:
        metrics = tracer.per_layer(rounds)
        metrics["trace.run_s"] = (run_s, "s")
        steps = metrics["trainer.steps"][0]
        if not raised and steps != workload.expected_steps():
            failures.append(f"traced {steps} training steps per round, expected "
                            f"{workload.expected_steps()}")
        table = tracer.table()
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": rounds * workload.ops_per_round,
        "failed": workload.ops_per_round if raised else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, table


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "emogen" / "__init__.py").is_file():
        print(f"perfbench: the emogen package is missing: no {SRC / 'emogen' / '__init__.py'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)

    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    # Imports read and write cached bytecode whatever PYTHONDONTWRITEBYTECODE
    # says, so only a checkout's first run compiles emogen and the benchmark.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix="run-", dir=out) as tmp:
        result, table = measure(WORKLOADS[args.workload](), Path(tmp), args.seed,
                                args.seconds, bool(args.trace))
    if table is not None:
        (out / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": table,
                        "metrics": result["metrics"]}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
