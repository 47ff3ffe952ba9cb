"""Fast guards for what the benchmark (perfbench/) relies on. The traced
run wraps riskfuse functions by module attribute name (perfbench/spans.py),
and every run compares reference confidences with perfbench/reference.json;
a renamed function or a numeric drift would otherwise only show up in the
slow benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from riskfuse import autodiff as ad
from riskfuse import pipeline
from riskfuse.datagen import build, planted_profile
from riskfuse.frozenlm import LMConfig, draw_designated, init_frozen

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_still_exists():
    spans = _load_spans()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.WRAPPED
               if not callable(getattr(module, attr, None))]
    missing += [f"riskfuse.pipeline.{attr}" for attr in spans.LOSS_BUILDERS
                if not callable(getattr(spans.pipeline, attr, None))]
    assert not missing, f"perfbench/spans.py wraps names riskfuse no longer has: {missing}"


def test_sequence_length_count_reads_a_real_backbone_call(monkeypatch):
    # frozenlm.seq_len is the count spans.py takes from pipeline.lm_forward's
    # arguments; evaluate it on the arguments of real readout calls
    spans = _load_spans()
    (count,) = [c for module, attr, _, c in spans.WRAPPED
                if module is pipeline and attr == "lm_forward"]
    calls = []
    real = pipeline.lm_forward

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "lm_forward", spy)
    lm = LMConfig(d_model=16, n_layers=1, n_heads=2, vocab=8, max_seq=4)
    frozen, designated = init_frozen(lm), draw_designated(lm.vocab, 2, seed=0)
    gen = np.random.default_rng(0)
    for n_sources in (1, 3):
        tokens = [ad.constant(gen.standard_normal((5, lm.d_model))) for _ in range(n_sources)]
        pipeline._confidence_graph([tokens], frozen, designated)
        assert count(*calls[-1]) == n_sources


def test_series_count_reads_a_real_featurization_call(monkeypatch):
    # encoders.series_featurized is the count spans.py takes from
    # pipeline.timeseries_feature_matrix's arguments: rows x series
    spans = _load_spans()
    (count,) = [c for module, attr, _, c in spans.WRAPPED
                if module is pipeline and attr == "timeseries_feature_matrix"]
    calls = []
    real = pipeline.timeseries_feature_matrix

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "timeseries_feature_matrix", spy)
    ds = build(planted_profile(n_records=9, seed=0, mode="raw"))
    rows = np.array([7, 1, 1, 4, 0])
    pipeline._base_embeddings(ds, rows, ("proc", "lab", "chart"))
    assert [count(*call) for call in calls] == [rows.size * ds.spec(name).n_series
                                                for name in ("proc", "lab", "chart")]


def test_params_updated_count_reads_a_real_isolated_training(monkeypatch):
    # optim.params_updated is the count spans.py takes from
    # pipeline.adamw_step's arguments: the tensors one step updates, four
    # per projector, so 24 for six sources trained in lockstep
    spans = _load_spans()
    (count,) = [c for module, attr, _, c in spans.WRAPPED
                if module is pipeline and attr == "adamw_step"]
    calls = []
    real = pipeline.adamw_step

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "adamw_step", spy)
    ds = build(planted_profile(n_records=24, seed=0))
    assert len(ds.source_specs) == 6
    lm = LMConfig(d_model=48, n_layers=1, n_heads=2, vocab=16, max_seq=8)
    pipeline.train(ds, pipeline.TrainConfig(mode="isolated", epochs=1, batch_size=8, lm=lm))
    assert calls
    assert [count(*call) for call in calls] == [24] * len(calls)


def test_a_raw_featurization_reaches_every_wrapped_featurizer(monkeypatch):
    # the encoders.* spans time the featurizers spans.py wraps by name; a
    # featurization that went around one would leave its span reading zero
    spans = _load_spans()
    wrapped = [attr for module, attr, name, _ in spans.WRAPPED
               if module is pipeline and name.startswith("encoders.")]
    assert {name for *_, name, _ in spans.WRAPPED if name.startswith("encoders.")} \
        == set(spans.ENCODER_SPANS)
    called = set()
    for attr in wrapped:
        def spy(*args, _real=getattr(pipeline, attr), _attr=attr, **kwargs):
            called.add(_attr)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, spy)
    ds = build(planted_profile(n_records=9, seed=0, mode="raw"))
    pipeline._base_embeddings(ds, np.array([3, 0, 3]), [s.name for s in ds.source_specs])
    assert sorted(called) == sorted(wrapped)


def test_reference_confidences_match_the_recorded_reference(tmp_path, monkeypatch):
    # the benchmark rejects a run whose reference confidences drift; check
    # the same thing here, through perfbench/bench.py itself
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_bench", SPANS.parent / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)   # its dataclasses look it up
    spec.loader.exec_module(bench)
    expected = json.loads(bench.REFERENCE.read_text())
    for mode in bench.REFERENCE_RECORDS:
        phi = bench.reference_confidences(mode, tmp_path / mode)
        np.testing.assert_allclose(phi, np.array(expected[mode]), rtol=0,
                                   atol=bench.REFERENCE_ATOL, err_msg=mode)
