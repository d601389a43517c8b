"""End-to-end and per-layer benchmark of crossfair's train -> eval -> theory
pipeline.

    python3 perfbench/run.py --workload fair-train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

For one workload: generate its TSV inputs from the seed in one process, run
the pipeline in a fresh single-threaded process (worker.py), check the
outputs, and print each metric by name and unit. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``. ``--workload all`` runs every workload
untraced and traced and prints both sets side by side with the tracing
overhead. Run from the repository root; inputs and outputs go to
``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import INPUT_FILES, WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

RUN_TIMEOUT_S = 170  # the whole run, generator and worker together

END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("time_to_target_s", "s"),
    ("eval_s", "s"),
    ("theory_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, commands it is read from, layer span, count or None).
# "setup": median over every train command of the run; "main": total over
# the epochs of the fixed-epoch train; "eval"/"theory": median per command.
# Times are self times: a span's duration minus the spans opened inside it.
PER_LAYER = (
    ("data.load_s", "s", "setup", "data.load", None),
    ("data.split_s", "s", "setup", "data.split", None),
    ("backbone.init_s", "s", "setup", "backbone.init", None),
    ("sampler.pool_build_s", "s", "setup", "sampler.pool_build", None),
    ("sampler.draw_s", "s", "main", "sampler.draw", None),
    ("sampler.draw_rows", "count", "main", "sampler.draw", "sampler.draw_rows"),
    ("gain.penalty_s", "s", "main", "gain.penalty", None),
    ("gain.fit_s", "s", "main", "gain.fit", None),
    ("gain.report_s", "s", "main", "gain.report", None),
    ("trainer.adam_s", "s", "main", "trainer.adam", None),
    ("trainer.adam_steps", "count", "main", "trainer.adam", "trainer.adam"),
    ("trainer.adam_rows", "count", "main", "trainer.adam", "trainer.adam_rows"),
    ("trainer.objective_s", "s", "main", "trainer.objective", None),
    ("trainer.epoch_self_s", "s", "main", "trainer.epoch", None),
    ("metrics.val_rank_s", "s", "main", "metrics.val_rank", None),
    ("metrics.test_rank_s", "s", "eval", "metrics.test_rank", None),
    ("backbone.snapshot_io_s", "s", "eval", "backbone.snapshot_io", None),
    ("theory.w1_s", "s", "theory", "theory.w1", None),
    ("theory.w1_calls", "count", "theory", "theory.w1", "theory.w1"),
    ("theory.lipschitz_s", "s", "theory", "theory.lipschitz", None),
)
# Read from epoch boundaries, so measured in untraced runs too: the main
# train's summed epoch wall time, and the time from its last epoch's end to
# the end of the command (artifact writing and the test evaluation).
BOUNDARY = (("trainer.epoch_s", "s"), ("cli.write_s", "s"))
IN_EPOCH = ("sampler.draw_s", "gain.penalty_s", "gain.fit_s", "gain.report_s", "trainer.adam_s",
            "trainer.objective_s", "trainer.epoch_self_s", "metrics.val_rank_s")


class BenchError(Exception):
    pass


def _steal_seconds() -> float | None:
    """Host steal time summed over CPUs, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():  # an exported tree: do not look above it
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _subprocess(argv, deadline):
    """Run one step to completion; on timeout the child is killed and reaped."""
    name = Path(argv[1]).name
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} did not finish within {RUN_TIMEOUT_S} s of the run") from exc
    if out.returncode != 0:
        raise BenchError(f"{name} exited {out.returncode}: {out.stderr.strip()[-2000:]}")


def _end_to_end(wl, commands, peak_rss_mb) -> dict:
    trains = [c for c in commands if c["kind"] in ("train", "to_target") and c["epochs"]]
    setup = [c["epochs"][0]["start"] - c["start"] for c in trains]
    to_target = []
    for c in trains:
        hit = next((e for e in c["epochs"] if e["val_ndcg10"] >= wl["target_ndcg"]), None)
        if hit is not None:
            to_target.append(hit["end"] - c["start"])
    if len(to_target) != len(trains):
        raise BenchError(f"validation NDCG@10 target {wl['target_ndcg']} not reached in "
                         f"{len(trains) - len(to_target)} of {len(trains)} train commands")
    epochs = [e for c in trains for e in c["epochs"]]
    epoch_s = sum(e["end"] - e["start"] for e in epochs)

    def command_median(kind):
        return statistics.median(c["end"] - c["start"] for c in commands if c["kind"] == kind)

    return {
        "setup_s": statistics.median(setup),
        "train_samples_per_s": sum(e["n_samples"] for e in epochs) / epoch_s,
        "time_to_target_s": statistics.median(to_target),
        "eval_s": command_median("eval"),
        "theory_s": command_median("theory"),
        "peak_rss_mb": peak_rss_mb,
    }


def _boundary(commands) -> dict:
    main = commands[0]
    return {
        "trainer.epoch_s": sum(e["end"] - e["start"] for e in main["epochs"]),
        "cli.write_s": main["end"] - main["epochs"][-1]["end"],
    }


def _per_layer(commands, absent) -> dict:
    groups = {
        "setup": [c for c in commands if c["kind"] in ("train", "to_target")],
        "main": commands[:1],
        "eval": [c for c in commands if c["kind"] == "eval"],
        "theory": [c for c in commands if c["kind"] == "theory"],
    }
    out = {}
    for metric, _unit, source, layer, count in PER_LAYER:
        if layer in absent:
            continue
        out[metric] = statistics.median(
            c["spans"]["counts"].get(count, 0) if count else c["spans"]["self_s"].get(layer, 0.0)
            for c in groups[source])
    return out


def _runlog_determinism(name, seed, digest, source_digest, inputs_digest):
    """Same workload, seed, inputs and code must give the same runlog bytes.
    The first run of a key records it; later runs compare against it."""
    record_path = WORK / "runlog_sha256.json"
    records = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{name}:{seed}:{inputs_digest[:16]}:{source_digest[:16]}"
    expected = records.setdefault(key, digest)
    record_path.write_text(json.dumps(records, indent=1, sort_keys=True))
    return ("runlog_same_seed_same_sha256", expected == digest,
            f"sha256 {digest[:16]}, recorded {expected[:16]}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate, measure, check. Returns the result object and side information."""
    if not (SRC / "crossfair" / "cli.py").is_file():
        raise BenchError(f"no crossfair sources under {SRC}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    wl = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    _subprocess([sys.executable, str(BENCH / "gen.py"), name, str(seed), str(data)], deadline)
    (work / "run.cfg").write_text(config_text(name, data), encoding="utf-8")

    steal0, wall0 = _steal_seconds(), time.perf_counter()
    _subprocess([sys.executable, str(BENCH / "worker.py"), name, str(seed), str(seconds),
                 str(trace), str(work), str(SRC)], deadline)
    wall = time.perf_counter() - wall0
    steal1 = _steal_seconds()
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    if result["commands"][0]["rc"] != 0 or not result["commands"][0]["epochs"]:
        raise BenchError("the main train command failed")
    # a failed command counts in `failed` and gives no timing
    commands = [c for c in result["commands"] if c["rc"] == 0]

    sys.path.insert(0, str(SRC))
    from crossfair.data import load_dataset, split_per_user

    import checks

    ds = load_dataset(*(data / f for f in INPUT_FILES))
    split = split_per_user(ds, seed)
    run_dir = work / "run"
    runlog = (run_dir / "runlog.jsonl").read_bytes()
    inputs_digest = hashlib.sha256(b"".join((data / f).read_bytes() for f in INPUT_FILES)
                                   + (work / "run.cfg").read_bytes().replace(
                                       str(work).encode(), b"")).hexdigest()
    results = (
        checks.check_eval(run_dir, work / "eval", ds, split)
        + checks.check_runlog(run_dir / "runlog.jsonl", wl["variant"], wl["train"]["gamma"],
                              wl["epochs"])
        + checks.check_bound(work / "theory", run_dir, ds)
        + [_runlog_determinism(name, seed, hashlib.sha256(runlog).hexdigest(),
                               _source_digest(), inputs_digest)]
    )
    e2e = _end_to_end(wl, commands, result["peak_rss_mb"])
    layers = _boundary(commands)
    if trace:
        layers.update(_per_layer(commands, set(result["absent"])))
    failed_checks = [r for r in results if not r[1]]
    info = {
        "rounds": result["rounds"],
        "commands": len(result["commands"]),
        "runlog_sha256": hashlib.sha256(runlog).hexdigest(),
        "thread_env": result["thread_env"],
        "versions": result["versions"],
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "worker_wall_s": wall,
        "absent_layers": result["absent"],
    }
    if trace:
        spans = {layer for *_, layer, _ in PER_LAYER} | {"trainer.epoch"}
        calls = sum(n for key, n in commands[0]["spans"]["counts"].items() if key in spans)
        info["main_train_spans"] = calls
        info["tracing_cost_estimate_s"] = calls * result["span_cost_s"]
    return {
        "checks": results,
        "attempted": len(result["commands"]) + len(results),
        "failed": len(result["commands"]) - len(commands) + len(failed_checks),
        "correct": not failed_checks,
        "e2e": e2e,
        "layers": layers,
        "info": info,
    }


def _units() -> dict:
    return dict(END_TO_END) | {m: u for m, u, *_ in PER_LAYER} | dict(BOUNDARY)


def _print_run(name, res):
    units = _units()
    print(f"== {name}")
    for key, val in res["info"].items():
        print(f"  {key}: {json.dumps(val)}")
    for check, ok, detail in res["checks"]:
        print(f"  check {check}: {'ok' if ok else 'FAILED'} ({detail})")
    for metric, val in {**res["e2e"], **res["layers"]}.items():
        print(f"  {metric} = {val:.6g} {units[metric]}")


def _result_line(res, trace):
    units = _units()
    chosen = res["layers"] if trace else res["e2e"]
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }


def _run_all(seed, seconds):
    units = _units()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, 0)
        traced = run_workload(name, seed, seconds, 1)
        _print_run(f"{name} (untraced)", plain)
        _print_run(f"{name} (traced)", traced)
        untraced_epoch = plain["layers"]["trainer.epoch_s"]
        traced_epoch = traced["layers"]["trainer.epoch_s"]
        self_sum = sum(traced["layers"].get(k, 0.0) for k in IN_EPOCH)
        print(f"  tracing overhead: epoch time {traced_epoch:.4f} s traced - "
              f"{untraced_epoch:.4f} s untraced = {traced_epoch - untraced_epoch:+.4f} s "
              f"({100 * (traced_epoch / untraced_epoch - 1):+.1f}%); wrapper cost "
              f"{traced['info']['tracing_cost_estimate_s']:.4f} s over "
              f"{traced['info']['main_train_spans']} spans; in-epoch self times sum to "
              f"{self_sum:.4f} s")
        for res in (plain, traced):
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        for metric, val in {**plain["e2e"], **traced["layers"]}.items():
            summary["metrics"][f"{name}.{metric}"] = {"value": val, "unit": units[metric]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            line = _run_all(args.seed, args.seconds)
        else:
            res = run_workload(args.workload, args.seed, args.seconds, args.trace)
            _print_run(args.workload, res)
            line = _result_line(res, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
