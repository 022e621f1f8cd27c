"""Tests of the benchmark itself: cold starts, inputs and tracer coverage.

    python3 -m pytest benchmarks -q

The sample-based tests spawn real workload runs (about a minute in all).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_SAMPLES: dict = {}


def traced_sample(workload: str, tmp_path_factory):
    if workload not in _SAMPLES:
        spans = tmp_path_factory.mktemp("spans") / f"{workload}.jsonl"
        _SAMPLES[workload] = run.spawn("sample", "--workload", workload, "--seed", "0",
                                       "--trace", "--spans", str(spans))
    return _SAMPLES[workload]


def test_seed_zero_is_the_committed_input_and_seeds_keep_sizes():
    from nesscorr.harness import parse_config

    assert workloads.scan_configs("length_scan", 0)["length_scan"] == \
        (workloads.ROOT / "configs" / "symmetric_length_scan.cfg").read_text()
    for workload in workloads.WORKLOADS:
        base = {k: parse_config(v) for k, v in workloads.base_configs(workload).items()}
        for seed in (1, 2, 12345):
            for name, text in workloads.scan_configs(workload, seed).items():
                cfg, ref = parse_config(text), base[name]
                assert text == workloads.scan_configs(workload, seed)[name]
                assert cfg.scan_values == ref.scan_values
                assert cfg.geometry == ref.geometry
                assert cfg.measures == ref.measures and cfg.mode == ref.mode
                shift = cfg.bias.kf_l - ref.bias.kf_l
                assert 0 < abs(shift) <= workloads.KF_SHIFT
                assert cfg.bias.kf_r - ref.bias.kf_r == pytest.approx(shift, abs=1e-15)


def test_timed_run_starts_cold_and_untraced_run_is_unpatched():
    sample = run.spawn("sample", "--workload", "offset_scan", "--seed", "0")
    assert all(stats == [0, 0] for stats in sample["cold_start"]["q_cache"].values())
    assert sample["cold_start"]["gl_rules"] == 0
    assert checks.cold_start_check(sample)["ok"]
    assert sample["unpatched"] is True
    assert "calls" not in sample


def test_tracer_patches_every_by_name_binding_and_restores_it():
    import nesscorr.harness  # noqa: F401  (loads every layer module)

    targets = tracing.public_functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.unpatched()
        for _, _, fn in targets:
            assert tracing._bindings(fn) == []
        measures = sys.modules["nesscorr.measures"]
        assert measures.herm_eigvals._bench_original is \
            sys.modules["nesscorr.densela"].herm_eigvals._bench_original
    finally:
        tracer.uninstall()
    assert tracing.unpatched()
    for _, _, fn in targets:
        assert tracing._bindings(fn)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_covers_the_layers_its_workload_exercises(workload, tmp_path_factory):
    sample = traced_sample(workload, tmp_path_factory)
    ops = checks.coverage_checks(workload, sample["calls"], None)
    assert [op for op in ops if not op["ok"]] == []
    if workload == "offset_scan":
        assert sample["layers"]["densela.gen_eigvals.calls"] == 0


def test_route_gap_check_stage_is_traced_and_all_layer_metrics_exist(tmp_path_factory):
    sample = traced_sample("length_scan", tmp_path_factory)
    spans = tmp_path_factory.mktemp("spans") / "check.jsonl"
    gap = run.spawn("route-gap", "--seed", "0", "--trace", "--spans", str(spans),
                    stdin=json.dumps(run.length_scan_eig_values(sample)))
    assert [op for op in checks.route_gap_checks(gap["points"]) if not op["ok"]] == []
    ops = checks.coverage_checks("length_scan", sample["calls"], gap["calls"])
    assert [op for op in ops if not op["ok"]] == []
    values = run.layer_values([sample], [sample], gap)
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
    assert set(tracing.LAYER_METRICS) <= set(values)
