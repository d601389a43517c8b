"""The benchmark under ``perfbench/`` times layers by replacing package
functions where their callers look them up. A refactor that renames or
removes one of those names does not fail the benchmark: the layer is only
reported absent. These checks fail instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import crossfair.data
import crossfair.trainer
from crossfair.cli import parse_config_file, resolve_config

from conftest import small_synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_perfbench("tracer")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("layer, module_name, attr",
                         tracer.LAYER_PATCHES + (tracer.EPOCH_PATCH,))
def test_traced_name_resolves(layer, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{layer}: {module_name}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_names_the_benchmark_calls_exist():
    assert callable(crossfair.data.CrossDomainDataset.group_array)
    assert callable(crossfair.data.load_dataset)
    assert callable(crossfair.data.split_per_user)


def test_adam_step_signature():
    # the tracer's wrapper passes (optimizer, name, param, grad, rows=...)
    params = inspect.signature(crossfair.trainer.Adam.step).parameters
    assert list(params) == ["self", "name", "param", "grad", "rows"]
    assert params["rows"].default is None


def test_batch_sample_negatives_signature():
    # the tracer's sampler.draw wrapper reads users as the third positional argument
    params = inspect.signature(crossfair.trainer.batch_sample_negatives).parameters
    assert list(params)[:3] == ["backbone", "pool", "users"]


def test_epoch_stats_fields_the_benchmark_reads(monkeypatch):
    # the worker's epoch wrapper reads n_samples and val_ndcg10 from what
    # train_epoch returns, for train_samples_per_s and time_to_target_s
    seen = []
    inner = crossfair.trainer.train_epoch

    def recording(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(crossfair.trainer, "train_epoch", recording)
    cfg = crossfair.trainer.TrainConfig(epochs=2, batch_size=256, estimator_hidden=(8,))
    model = crossfair.trainer.train(small_synth(), cfg, d=4)
    assert len(seen) == 2
    for stats, logged in zip(seen, model.log):
        assert stats is logged
        assert isinstance(stats.n_samples, int) and stats.n_samples > 0
        assert isinstance(stats.val_ndcg10, float) and 0.0 <= stats.val_ndcg10 <= 1.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_config_resolves(tmp_path, name):
    # the worker hands this file to ``crossfair``; a renamed or retyped
    # config key would fail every run of the workload
    path = tmp_path / "run.cfg"
    path.write_text(workloads.config_text(name, tmp_path), encoding="utf-8")
    cfg = resolve_config(parse_config_file(path)).validate()
    train = workloads.WORKLOADS[name]["train"]
    assert cfg.train.epsilon == train["epsilon"]
    assert cfg.train.candidate_size == train["candidate_size"]
    assert cfg.sharing_mode == train["sharing_mode"]
    assert cfg.eval_ks == tuple(int(k) for k in train["eval_ks"].split(","))
