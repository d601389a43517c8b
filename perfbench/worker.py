"""The measured process: one workload's CLI pipeline, in-process.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace> <work_dir> <src_dir>

Pins every BLAS/OpenMP pool to one thread before numpy is imported, then
runs through ``crossfair.cli.main``:

1. ``train`` with fixed epochs and early stopping off (the main run, whose
   artifacts the later commands and the checks read);
2. whole rounds of ``train`` stopped at the end of the epoch that reaches the
   workload's validation NDCG@10 target, then EVALS_PER_ROUND ``eval --run``
   and THEORIES_PER_ROUND ``theory``, repeated until ``seconds`` have passed
   and at least MIN_ROUNDS times.

Timings and per-layer spans go to ``<work_dir>/worker.json``.
"""

import os
import sys

THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_ROUNDS = 3
# eval and theory take about a second or less, so each round repeats them to
# give their medians enough samples spread over the run.
EVALS_PER_ROUND = 3
THEORIES_PER_ROUND = 3
# The CLI's default subsample; exact matching is about 90% of the command.
THEORY_SUBSAMPLE = 256
EVAL_KS = "10,20,50"


class TargetReached(Exception):
    """Raised from inside ``train`` to end a round's run at its target epoch."""


def _span_cost(tracer, n=20000) -> float:
    """Seconds one traced call adds over a direct call, for the overhead estimate."""
    def noop():
        return None
    start = time.perf_counter()
    for _ in range(n):
        noop()
    direct = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        tracer.call("calibration", noop)
    traced = time.perf_counter() - start
    tracer.take()
    return max(traced - direct, 0.0) / n


def main(name, seed, seconds, trace, work, src):
    sys.path.insert(0, src)
    from crossfair import cli
    from tracer import EPOCH_PATCH, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tracer = Tracer()
    if trace:
        tracer.patch_layers()
    state = {"epochs": None, "stop_at_target": False}

    def epoch_wrapper(fn):
        def traced_epoch(*args, **kwargs):
            start = time.perf_counter()
            stats = tracer.call("trainer.epoch", fn, *args, **kwargs) if trace \
                else fn(*args, **kwargs)
            end = time.perf_counter()
            state["epochs"].append(
                {"start": start, "end": end, "n_samples": int(stats.n_samples),
                 "val_ndcg10": float(stats.val_ndcg10)})
            if state["stop_at_target"] and stats.val_ndcg10 >= wl["target_ndcg"]:
                raise TargetReached
            return stats
        return traced_epoch

    tracer.patch(*EPOCH_PATCH, wrapper=epoch_wrapper)
    span_cost_s = _span_cost(tracer) if trace else 0.0

    cfg = work / "run.cfg"
    common = ["--config", str(cfg), "--seed", str(seed), "--quiet"]
    run_dir = work / "run"
    commands = []

    def run(kind, argv, stop_at_target=False):
        state["epochs"] = []
        state["stop_at_target"] = stop_at_target
        tracer.take()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except TargetReached:
            rc = 0
        end = time.perf_counter()
        commands.append({"kind": kind, "rc": rc, "start": start, "end": end,
                         "epochs": state["epochs"], "spans": tracer.take()})

    started = time.perf_counter()
    run("train", common + ["--out", str(run_dir), "train", "--ablate", wl["variant"]])
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    theory_argv = [
        "--seed", str(seed), "--quiet", "--out", str(work / "theory"), "theory",
        "--snapshot", str(run_dir / "snapshot.bin"), "--attrs", str(run_dir / "groups.tsv"),
        "--overlap", str(run_dir / "overlap.tsv"), "--lf", "auto",
        "--subsample", str(THEORY_SUBSAMPLE),
        "--baseline-ugf", repr(report["ugf"]["recall@10"]),
    ]
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        run("to_target", common + ["--out", str(work / "to_target"), "train",
                                   "--ablate", wl["variant"]], stop_at_target=True)
        for i in range(max(EVALS_PER_ROUND, THEORIES_PER_ROUND)):
            if i < EVALS_PER_ROUND:
                run("eval", common + ["--out", str(work / "eval"), "eval", "--run",
                                      str(run_dir), "--k", EVAL_KS])
            if i < THEORIES_PER_ROUND:
                run("theory", theory_argv)
        rounds += 1

    import numpy
    import scipy

    result = {
        "workload": name, "seed": seed, "trace": trace, "rounds": rounds,
        "commands": commands, "absent": tracer.absent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "thread_env": THREAD_ENV,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "span_cost_s": span_cost_s,
    }
    (work / "worker.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    name, seed, seconds, trace, work, src = sys.argv[1:7]
    main(name, int(seed), float(seconds), int(trace), Path(work), src)
