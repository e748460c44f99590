"""CLI exporters: drbac metrics / drbac trace / --metrics-out."""

import json

import pytest

from repro.cli import main
from repro.obs.export import parse_prometheus_text, sample_total


@pytest.fixture()
def ws(tmp_path):
    return str(tmp_path / "workspace")


def run(ws, *args):
    return main(["-w", ws, *args])


class TestMetricsCommand:
    def test_prometheus_dump_parses_with_live_totals(self, ws, capsys):
        assert run(ws, "metrics", "--format", "prometheus") == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        for name in ("drbac_wallet_authorizations_total",
                     "drbac_discovery_runs_total",
                     "drbac_rpc_notifies_total",
                     "drbac_gem_evals_issued_total",
                     "drbac_gem_evals_served_total",
                     "drbac_crypto_memo_misses_total"):
            assert sample_total(samples, name) > 0, name

    def test_json_snapshot(self, ws, capsys):
        assert run(ws, "metrics", "--format", "json") == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap) == {"virtual_time", "counters", "gauges",
                             "histograms"}
        names = {c["name"] for c in snap["counters"]}
        assert "drbac_discovery_runs_total" in names

    def test_output_file_and_federation_workload(self, ws, tmp_path,
                                                 capsys):
        out = tmp_path / "metrics.prom"
        assert run(ws, "metrics", "--workload", "federation:3",
                   "-o", str(out)) == 0
        samples = parse_prometheus_text(out.read_text())
        assert sample_total(samples, "drbac_discovery_runs_total") > 0

    def test_unknown_workload_errors(self, ws, capsys):
        assert run(ws, "metrics", "--workload", "nope") == 1
        assert "unknown workload" in capsys.readouterr().err


class TestTraceCommand:
    def test_chrome_export_is_one_connected_tree(self, ws, tmp_path,
                                                 capsys):
        out = tmp_path / "trace.json"
        assert run(ws, "trace", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events
        names = {e["name"] for e in events}
        assert {"wallet.authorize", "discovery.discover",
                "discovery.gem_eval", "wallet.publish"} <= names
        roots = [e for e in events if "parent_id" not in e["args"]]
        assert [e["name"] for e in roots] == ["wallet.authorize"]
        ids = {e["args"]["span_id"] for e in events}
        assert all(e["args"]["parent_id"] in ids
                   for e in events if "parent_id" in e["args"])

    def test_jsonl_export(self, ws, capsys):
        assert run(ws, "trace", "--format", "jsonl") == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r["name"] == "wallet.authorize" for r in records)


class TestGlobalMetricsOut:
    def test_issue_writes_dump_with_timing_summary(self, ws, tmp_path,
                                                   capsys):
        out = tmp_path / "metrics.prom"
        assert run(ws, "entity", "create", "BigISP") == 0
        assert run(ws, "entity", "create", "Maria") == 0
        assert main(["-w", ws, "--metrics-out", str(out), "issue",
                     "[Maria -> BigISP.member] BigISP",
                     "--timing"]) == 0
        err = capsys.readouterr().err
        assert "# metrics:" in err and "publishes=" in err
        samples = parse_prometheus_text(out.read_text())
        assert sample_total(samples,
                            "drbac_wallet_publishes_total") > 0

    def test_dump_written_even_on_command_error(self, ws, tmp_path,
                                                capsys):
        out = tmp_path / "metrics.prom"
        assert main(["-w", ws, "--metrics-out", str(out), "issue",
                     "[Nobody -> Nowhere.role] Nobody"]) == 1
        assert parse_prometheus_text(out.read_text()) is not None
