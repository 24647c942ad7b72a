"""Unit tests for the benchmark's own helpers: the percentile rule, self
time from overlapping child spans, superseded-versus-failed
classification, the conversion oracle and the answer oracles.

Run with ``python3 -m pytest bench/tests``. They import nothing from
``giots``: the oracles must stay independent of the code under test.
"""

import json
import math
import os
import statistics
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import workload  # noqa: E402
from tracing import Tracer  # noqa: E402


# --- the percentile rule ----------------------------------------------------------


def test_quantile_is_the_inclusive_linear_rule():
    data = [float(v) for v in range(1, 1001)]
    expected = statistics.quantiles(data, n=100, method="inclusive")
    assert stats.quantile(data, 0.99) == pytest.approx(expected[98])
    assert stats.quantile(data, 0.95) == pytest.approx(expected[94])
    assert stats.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert stats.quantile([7.0], 0.99) == 7.0


def test_a_supported_percentile_has_ten_samples_beyond_it():
    for q in (0.95, 0.99):
        n = next(n for n in range(1, 5000) if stats.supported(n, q))
        assert stats.samples_beyond(n, q) >= 10
        assert stats.samples_beyond(n - 1, q) < 10
        assert stats.supported(n, q) and not stats.supported(n - 1, q)
        data = list(range(n))
        cut = stats.quantile(data, q)
        assert sum(1 for v in data if v > cut) == stats.samples_beyond(n, q)
    assert stats.supported(1000, 0.99)
    assert not stats.supported(500, 0.99)
    assert stats.samples_beyond(0, 0.99) == 0


# --- self time ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    # children [1,3] and [2,5] overlap; [8,12] reaches past the parent's end
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0


def test_self_time_ignores_children_outside_the_span_and_nested_duplicates():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 10.0
    assert stats.self_time(0.0, 10.0, [(2.0, 6.0), (3.0, 4.0), (2.0, 6.0)]) == 6.0
    assert stats.self_time(0.0, 10.0, [(-1.0, 11.0)]) == 0.0


# --- superseded versus failed --------------------------------------------------------


def test_unseen_values_before_a_seen_one_are_superseded():
    sent = ["a", "b", "c", "d"]
    assert stats.classify(sent, {"b", "d"}) == [
        stats.SUPERSEDED, stats.TIMED, stats.SUPERSEDED, stats.TIMED]


def test_unseen_values_after_the_last_seen_one_failed():
    sent = ["a", "b", "c"]
    assert stats.classify(sent, {"a"}) == [stats.TIMED, stats.FAILED, stats.FAILED]
    assert stats.classify(sent, set()) == [stats.FAILED] * 3
    assert stats.classify([], {"a"}) == []


# --- the conversion oracle -------------------------------------------------------------


def test_conversion_oracle_by_hand():
    assert workload.convert_by_hand("celsius", 25) == (Decimal("298.15"), "kelvin")
    assert workload.convert_by_hand("celsius", -20) == (Decimal("253.15"), "kelvin")
    assert workload.convert_by_hand("fahrenheit", 98.6) == (Decimal(37), "celsius")
    assert workload.convert_by_hand("fahrenheit", 14.0) == (Decimal(-10), "celsius")
    assert workload.convert_by_hand(None, 1234) == (Decimal(1234), None)


@pytest.mark.parametrize("unit", workload.UNITS)
def test_sensor_readings_rise_and_stay_exact(unit):
    sensor = workload.Sensor("s", "dev-000", "push", unit, base=-10, type=workload.ROOM,
                             location=None)
    values = [sensor.expected(k) for k in range(200)]
    assert all(b - a == 1 for a, b in zip(values, values[1:]))
    if unit == "fahrenheit":
        assert all(v == v.to_integral_value() for v in values)
        assert all(isinstance(sensor.raw(k), float) for k in range(5))


# --- inputs and answer oracles -------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    assert workload.make_inputs(5).stack_spec() == workload.make_inputs(5).stack_spec()
    assert workload.make_inputs(5).stack_spec() != workload.make_inputs(6).stack_spec()


def test_poisson_schedule_has_a_fixed_count_inside_the_interval():
    times = workload.poisson_schedule(workload.random.Random(1), 45.0, 24.0)
    assert len(times) == 1080
    assert times == sorted(times) and 0.0 <= times[0] and times[-1] < 24.0
    assert times == workload.poisson_schedule(workload.random.Random(1), 45.0, 24.0)
    # arrivals spread evenly: each quarter of the interval holds about a quarter
    quarters = [sum(1 for t in times if q * 6.0 <= t < (q + 1) * 6.0) for q in range(4)]
    assert all(200 < n < 340 for n in quarters)


def _primed_ledger(inputs):
    ledger = workload.Ledger(inputs)
    for sensor in inputs.sensors:
        ledger.next_reading(sensor)
    return ledger


def test_answer_oracle_flags_a_wrong_discovery_and_a_wrong_entity():
    inputs = workload.make_inputs(3)
    ledger = _primed_ledger(inputs)
    discovery = next(q for q in inputs.queries if q.kind == "discovery")
    assert ledger.check_answer(discovery, 200, {"uril": sorted(discovery.expect)}) is None
    assert ledger.check_answer(discovery, 200, {"uril": sorted(discovery.expect)[1:]})
    assert ledger.check_answer(discovery, 500, {"uril": sorted(discovery.expect)})

    lookup = next(q for q in inputs.queries if q.kind == "context" and q.label == "id")
    sensor = ledger.by_entity[next(iter(lookup.expect))]
    value = ledger.sent[sensor.entity][0]
    meta = [{"name": "source", "type": "string", "value": sensor.path}]
    if sensor.out_unit:
        meta.append({"name": "unit", "type": "string", "value": sensor.out_unit})
    entity = {"id": sensor.entity, "type": sensor.type,
              "attributes": [{"name": "reading", "value": float(value), "metadata": meta}]}
    assert ledger.check_answer(lookup, 200, {"entities": [entity]}) is None
    wrong = dict(entity, attributes=[dict(entity["attributes"][0], value=float(value) + 1)])
    assert ledger.check_answer(lookup, 200, {"entities": [wrong]})
    assert ledger.check_answer(lookup, 200, {"entities": [dict(entity, type=workload.ROOM)]})


def test_sparql_oracle_requires_exactly_the_entities_that_pass_the_filter():
    inputs = workload.make_inputs(3)
    ledger = _primed_ledger(inputs)
    query = next(q for q in inputs.queries if q.kind == "sparql")
    members = [s for s in inputs.push
               if s.type == query.sparql_type and s.expected(0) > workload.SPARQL_THRESHOLD]
    rows = [{"e": {"kind": "iri", "value": f"urn:{s.entity}"},
             "v": {"kind": "literal", "value": str(s.expected(0))}} for s in members]
    answer = {"variables": ["e", "v"], "solutions": rows}
    assert ledger.check_answer(query, 200, answer) is None
    if rows:
        assert ledger.check_answer(query, 200, dict(answer, solutions=rows[1:]))


# --- the benchmark definition ------------------------------------------------------------


def test_benchmark_json_matches_what_the_command_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # push-burst runs on demand but is not gated: see bench/README.md
    assert [w["name"] for w in spec["workloads"]] == ["push-steady", "query-mix"]
    assert set(run.WORKLOADS) == {"push-steady", "push-burst", "query-mix"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_the_tracer_reports_every_stack_side_layer_metric():
    drops = dict.fromkeys(
        ("cse.notifications_dropped", "smg.updates_dropped", "agent.feedback_dropped",
         "agent.passes_aborted"), 0)
    layers = Tracer().layer_metrics(
        readings=0, ops=0, drops=drops, sizes={"treeResources": 0, "brokerEntities": 0})
    generator_side = {"loadgen.lag_p99_ms", "stack.threads_peak", "stack.cpu_ms_per_reading",
                      *run.UNBOUNDED}
    assert set(layers) | generator_side == set(run.PER_LAYER)
    # with nothing traced, timings and ratios have no data and must not read 0
    assert math.isnan(layers["broker.update_ms_p50"])
    assert math.isnan(layers["knowledge.cache_hit_ratio"])
    assert layers["cse.notifications_dropped"] == 0


def _in_a_stack_process(script: str) -> subprocess.CompletedProcess:
    """Run a script where bench/stack.py runs: giots from src, bench on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(BENCH.parent / "src"), str(BENCH))))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)


INSTALL = """
import json
from tracing import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.installed))
"""


def test_every_hook_installs_against_the_program():
    done = _in_a_stack_process(INSTALL)
    assert done.returncode == 0, done.stderr
    installed = json.loads(done.stdout)
    assert len(installed) == len(set(installed)) == 39
    for hook in ("httpkit.JsonHttpService.handle", "httpkit.request_json", "cse.post_json",
                 "knowledge.get_json", "rdf.Graph.match", "agent.Agent.run_rule_pass"):
        assert hook in installed


def test_a_hook_that_is_gone_stops_the_tracer():
    done = _in_a_stack_process(
        "import giots.smg\ndel giots.smg.MediationGateway.answer_query\n" + INSTALL)
    assert done.returncode != 0
    assert "giots.smg.MediationGateway.answer_query is gone" in done.stderr


def test_every_counted_loss_is_still_logged_by_the_program():
    done = _in_a_stack_process("import stack\nstack.DropCounter()\n")
    assert done.returncode == 0, done.stderr
