"""Layer timing from outside the program.

Each public function the pipeline calls is replaced, where its caller looks
it up, by a wrapper that records a span. A span's self time is its duration
minus the time of the spans opened inside it, so the self times of the spans
inside one ``train_epoch`` add up to that epoch's wall time. Spans are kept
as per-name sums in memory and read out once per CLI command.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (layer metric, module where the caller looks the name up, attribute).
# trainer imports the sampler, gain and split functions directly, so they
# are patched in crossfair.trainer; the CLI reaches backbone, metrics and
# theory through their modules.
LAYER_PATCHES = (
    ("data.load", "crossfair.cli", "load_dataset"),
    ("data.split", "crossfair.trainer", "split_per_user"),
    ("data.split", "crossfair.cli", "split_per_user"),
    ("backbone.init", "crossfair.trainer", "init_backbone"),
    ("backbone.init", "crossfair.backbone", "init"),
    ("backbone.snapshot_io", "crossfair.backbone", "load_snapshot"),
    ("backbone.snapshot_io", "crossfair.backbone", "save_snapshot"),
    ("sampler.pool_build", "crossfair.trainer", "NegativePool"),
    ("sampler.draw", "crossfair.trainer", "batch_sample_negatives"),
    ("gain.penalty", "crossfair.trainer", "redistribution_grads"),
    ("gain.fit", "crossfair.trainer", "estimator_step"),
    ("gain.report", "crossfair.trainer", "estimate_gain"),
    ("trainer.adam", "crossfair.trainer", "Adam.step"),
    ("trainer.objective", "crossfair.trainer", "batch_objective"),
    ("metrics.val_rank", "crossfair.metrics", "quick_ndcg_at_10"),
    ("metrics.test_rank", "crossfair.metrics", "evaluate"),
    ("theory.w1", "crossfair.theory", "wasserstein1"),
    ("theory.lipschitz", "crossfair.theory", "lipschitz_estimate"),
)

EPOCH_PATCH = ("trainer.epoch", "crossfair.trainer", "train_epoch")


class Tracer:
    def __init__(self):
        self._open = []  # [name, child seconds] per open span
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []  # layer names with no patchable function left

    def take(self) -> dict:
        """Per-name self seconds and counts since the last call, then reset."""
        out = {"self_s": dict(self.self_s), "counts": dict(self.counts)}
        self.self_s.clear()
        self.counts.clear()
        return out

    def inside(self, name: str) -> bool:
        return any(span[0] == name for span in self._open)

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0]
        self._open.append(span)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            self._open.pop()
            self.self_s[name] += took - span[1]
            self.counts[name] += 1
            if self._open:
                self._open[-1][1] += took

    def _wrapper(self, name: str, fn):
        if name == "sampler.draw":
            def traced(backbone, pool, users, *args, **kwargs):
                self.counts["sampler.draw_rows"] += len(users)
                return self.call(name, fn, backbone, pool, users, *args, **kwargs)
        elif name == "trainer.adam":
            def traced(opt, table, param, grad, rows=None):
                # the estimator's own optimizer steps belong to gain.fit
                if self.inside("gain.fit"):
                    return fn(opt, table, param, grad, rows=rows)
                self.counts["trainer.adam_rows"] += len(param) if rows is None else len(rows)
                return self.call(name, fn, opt, table, param, grad, rows=rows)
        elif name == "metrics.test_rank":
            def traced(*args, **kwargs):
                # validation ranking runs inside metrics.val_rank
                if kwargs.get("phase", "test") == "val":
                    return fn(*args, **kwargs)
                return self.call(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.wraps(fn, updated=())(traced)

    def patch(self, name: str, module_name: str, attr: str, wrapper=None) -> bool:
        """Replace ``module.attr`` (or ``module.Class.method``) with a traced
        wrapper. Returns False when the name no longer exists."""
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, leaf):
            return False
        fn = getattr(owner, leaf)
        setattr(owner, leaf, wrapper(fn) if wrapper else self._wrapper(name, fn))
        return True

    def patch_layers(self):
        """Patch every layer; a layer none of whose names exists is absent."""
        found = defaultdict(bool)
        for name, module_name, attr in LAYER_PATCHES:
            found[name] |= self.patch(name, module_name, attr)
        self.absent = sorted(name for name, ok in found.items() if not ok)
