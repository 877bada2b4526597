"""Self-tests of the benchmark harness at reduced size (short t_final).

Run from the repository root: python3 -m pytest perfbench
"""
import json

import pytest

import run
import tracing
from workloads import DISORDER_LEVELS, disorder_profiles, ensemble_op, simulate_op, sweep_op

SHORT = 20.0  # t_final (1/nu) of the reduced-size ops

run.import_package()

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _printed(lines, metrics):
    """Check each (name, unit) is on a human line and in the JSON last line."""
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    return result


def test_registries_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == (
        tracing.LAYER_METRICS)
    # sweep-n6 is defined but not benchmarked (see its definition)
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        name for name in run.WORKLOADS if name != "sweep-n6"]


def test_every_metric_is_printed_with_its_unit():
    env = run.environment()
    plain = run.run_end_to_end("simulate-cases", 1, 0.0, t_final=SHORT, setup_samples=1)
    result = _printed(run.render("simulate-cases", 1, plain, env), BENCHMARK["end_to_end"])
    assert result["correct"] and result["attempted"] == 6 and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = run.run_traced("sweep-n6", 1, t_final=SHORT, kernel_scale=0.02)
    result = _printed(run.render("sweep-n6", 1, traced, env), BENCHMARK["per_layer"])
    assert result["correct"] and result["failed"] == 0
    # untraced, traced and traced at one worker
    assert result["attempted"] == 3
    assert result["metrics"]["pool.members"]["value"] == 2
    assert result["metrics"]["kernels.lindblad_calls"]["value"] == 2


def test_invalid_sweep_point_raises_failed_frac(tmp_path):
    tally = run.Tally(reference=None)
    tally.run(sweep_op("I", 2, [0, -1.0], 1.1, SHORT), 2, tmp_path / "bad")
    tally.run(sweep_op("I", 2, [0, "1.0kHz"], 1.1, SHORT), 2, tmp_path / "good")
    assert (tally.attempted, tally.failed) == (2, 1)
    lines = run.render("sweep-n6", 0, {"tally": tally, "metrics": {}, "units": {},
                                       "notes": []}, {})
    assert "0.5 fraction" in next(line for line in lines if "failed_frac" in line)
    assert json.loads(lines[-1])["correct"] is False


def test_reference_mismatch_and_output_drift_count_as_failed(tmp_path):
    op = simulate_op("I", 2, 0, 1.1, SHORT)
    tally = run.Tally(reference={op.key: {"pop_target": 2.0}})
    tally.run(op, 1, tmp_path / "a")
    assert tally.failed == 1 and "reference" in tally.problems[0]

    tally = run.Tally(reference=None)
    tally.run(op, 1, tmp_path / "b")
    tally.fingerprints[op.key] = "not the digest of this output"
    tally.run(op, 1, tmp_path / "c")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_run_restores_every_wrapped_attribute():
    before = {(id(owner), attr): vars(owner)[attr]
              for owner, attr in tracing.traced_attributes()}
    assert len(before) == len(tracing.traced_attributes())
    run.run_traced("ensemble-disorder", 1, t_final=SHORT, kernel_scale=0.02)
    for owner, attr in tracing.traced_attributes():
        assert vars(owner)[attr] is before[(id(owner), attr)], attr

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert all(vars(o)[a] is not before[(id(o), a)]
                       for o, a in tracing.traced_attributes())
            raise RuntimeError("op failed")
    for owner, attr in tracing.traced_attributes():
        assert vars(owner)[attr] is before[(id(owner), attr)], attr


def test_pool_members_on_worker_threads_parent_to_the_pool_span(tmp_path):
    tracer = tracing.Tracer()
    op = ensemble_op(disorder_profiles(0, 0.1)[:3], SHORT)
    with tracing.installed(tracer):
        op.run(2, str(tmp_path))
    spans = {s.id: s for s in tracer.spans}
    pool = [s for s in tracer.spans if s.name == "pool.map"]
    members = [s for s in tracer.spans if s.name == "pool.member"]
    assert len(pool) == 1 and len(members) == 4
    assert {m.thread for m in members} - {pool[0].thread}
    assert all(m.parent == pool[0].id for m in members)
    scenarios = [s for s in tracer.spans if s.name == "protocols.run_scenario"]
    assert sorted(spans[s.parent].name for s in scenarios) == ["pool.member"] * 4
    # self time excludes children: the kernels sit inside evolve
    metrics = tracing.layer_metrics(tracer.spans)
    evolve_total = sum(s.duration for s in tracer.spans if s.name == "dynamics.evolve")
    assert 0 < metrics["dynamics.evolve_self_s"] < evolve_total - metrics["kernels.lindblad_s"] + 1e-9


def test_default_seed_gives_reference_profiles_and_others_hit_each_level():
    from lmg_adiabat import REFERENCE_DISORDER_PROFILES

    ref = disorder_profiles(0, 0.1)
    assert [(p.label, p.fractions) for p in ref] == [
        (label, tuple(f)) for label, f in REFERENCE_DISORDER_PROFILES]
    drawn = disorder_profiles(7, 0.1)
    assert drawn == disorder_profiles(7, 0.1) and drawn != ref
    for i, level in enumerate(DISORDER_LEVELS.values()):
        for p in drawn[3 * i:3 * i + 3]:
            assert max(abs(f) for f in p.fractions) == level
