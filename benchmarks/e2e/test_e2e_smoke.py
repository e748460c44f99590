"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths = ["tests"]`` does not collect it).
Runs every workload at ``--scale 0.02`` and checks the benchmark's own
promises: every metric of ``BENCHMARK.json`` is reported with its unit,
nothing fails, a seed fixes the traffic and the exact counts, the
checker notices a wrong answer, and the tracer leaves no trace.
"""

import importlib
import json
import sys

import pytest

from e2e import check, run, streams, svc
from e2e.trace import TARGETS, Tracer

SCALE = 0.02


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def records():
    """(workload, trace) -> record, every workload in both modes."""
    return {(name, trace): run.run_workload(name, seed=1, seconds=10.0,
                                            trace=bool(trace), scale=SCALE)
            for name in run.WORKLOADS for trace in (0, 1)}


def test_every_metric_is_reported_with_its_unit(spec, records, capsys):
    for (name, trace), record in records.items():
        section = spec["per_layer" if trace else "end_to_end"]
        assert list(record["metrics"]) == [m["name"] for m in section]
        run.print_report(record)
        printed = capsys.readouterr().out
        line = json.loads(run.result_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metric in section:
            assert f"{metric['name']} " in printed
            reported = line["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 for m in record["metrics"].values()), \
                (name, record["metrics"])


def test_nothing_fails(records):
    for key, record in records.items():
        assert record["correct"], (key, record["notes"])
        assert record["failed"] == 0 and record["failed_share"] == 0
        assert record["attempted"] > 0


def test_layers_separate_as_predicted(records):
    hot = records[("svc_hot", 1)]["metrics"]
    assert hot["service.shard.memo_hit_share"]["value"] >= 0.99
    assert hot["discovery.engine.self_ms_per_op"]["n"] == 0
    churn = records[("svc_churn", 1)]["metrics"]
    assert churn["crypto.verify.calls_per_op"]["value"] >= 0.6
    for name in ("disc_fed", "disc_scc"):
        metrics = records[(name, 1)]["metrics"]
        assert all(metric["value"] == 0 for layer, metric in metrics.items()
                   if layer.startswith("service."))
        assert metrics["discovery.engine.self_ms_per_op"]["value"] > 0
    for (name, trace), record in records.items():
        if trace:
            metrics = record["metrics"]
            assert metrics["trace.attributed_share"]["value"] >= 0.9, name
            assert metrics["trace.missing_targets"]["value"] == 0
            assert record["spans"]["rows"]


def _stream_hash(workload: str, seed: int) -> str:
    inputs = streams.INPUTS[workload](seed, 10.0 * SCALE, SCALE)
    for _ in range(streams.SETUP_ROUNDS):
        inputs.step()
    return inputs.plan().stream_hash


@pytest.mark.parametrize("workload", ["svc_hot", "svc_churn"])
def test_seed_fixes_the_request_stream(workload, records):
    recorded = records[(workload, 0)]["stream_hash"]
    assert recorded == records[(workload, 1)]["stream_hash"]
    assert _stream_hash(workload, 1) == recorded
    assert _stream_hash(workload, 2) != recorded


@pytest.mark.parametrize("workload", ["svc_hot", "disc_fed"])
def test_seed_fixes_the_exact_counts(workload, records):
    again = run.run_workload(workload, seed=1, seconds=10.0, trace=False,
                             scale=SCALE)
    for exact in ("msgs_per_authorize", "wire_bytes_per_authorize"):
        assert again["metrics"][exact]["value"] \
            == records[(workload, 0)]["metrics"][exact]["value"]


def test_checker_fails_on_a_wrong_expected_decision():
    inputs = streams.INPUTS["svc_hot"](1, 0.1, 0.005)
    for _ in range(streams.SETUP_ROUNDS):
        inputs.step()
    ops = inputs.plan().warmup[0]
    wrong = ops[0]._replace(expect=streams.DENIED)
    for stream, failures in ((ops, 0), ([wrong] + ops[1:], 1)):
        tally = check.Tally()
        svc._replay(inputs.pop, [], stream, Tracer(), tally, None)
        assert tally.failed == failures
        assert tally.correct == (failures == 0)
    assert check.decision_problem(streams.GRANTED,
                                  {"status": "retry-later"}) is not None
    assert check.decision_problem(streams.DENIED,
                                  {"status": "ok", "granted": True})


def test_tracer_uninstalls_cleanly():
    def current():
        found = {}
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            found[(target.module, target.owner, target.attr)] = \
                vars(owner)[target.attr]
        return found

    def copies(function):
        return [(name, attr) for name, module in sys.modules.items()
                if name.startswith("repro.")
                for attr, value in vars(module).items() if value is function]

    from repro.crypto.encoding import canonical_encode
    before, before_copies = current(), copies(canonical_encode)
    assert len(before_copies) > 1
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing
    assert all(now is not before[key] for key, now in current().items())
    assert not copies(canonical_encode)
    tracer.uninstall()
    assert all(now is before[key] for key, now in current().items())
    assert copies(canonical_encode) == before_copies


def test_a_vanished_target_reports_null_not_a_crash():
    from e2e import ledger
    from e2e.trace import Target
    gone = (Target("graph.search", "repro.graph.search", None, "no_such"),
            Target("monitor", "repro.no_such_module", "Gone", "method"))
    tracer = Tracer(gone)
    with tracer:
        with tracer.root("op"):
            pass
    assert len(tracer.missing) == 2
    entries = ledger.from_trace(tracer, 1, 1.0, 1.0, speed=1.0)
    assert entries["graph.search.self_ms_per_op"] == (None, 0)
    assert entries["trace.missing_targets"][0] == 2
