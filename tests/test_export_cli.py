"""Configuration parsing, export formatting, and the assembled pipeline."""

import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from alertsynth import export_cli
from alertsynth.action_space import ConfigError
from alertsynth.export_cli import (EVIDENCE_HEADER, Engine, RunConfig,
                                   build_config, compact_ts,
                                   export_evidence_series, export_payload,
                                   iso_ts, main, parse_config_file,
                                   parse_duration, parse_ratio, parse_source,
                                   parse_weights, render_export, round9, run)
from alertsynth.ingest import (MissingField, ParseError, SourceSpec,
                               parse_alert_line, parse_timestamp)
from conftest import export_files, latest_export, run_engine
from test_ingest import ADDRESSES, JSON_VALUES

T0_US = 1_740_873_600_000_000     # 2025-03-02T00:00:00Z


def eve_line(offset_s, src="198.51.100.9", dst="10.0.0.5", sport=50000,
             dport=80, proto="TCP", sig=2400001, text="ET SCAN probe"):
    us = T0_US + int(offset_s * 1e6)
    sec, rem = divmod(us, 1_000_000)
    stamp = datetime.fromtimestamp(sec, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S")
    return json.dumps({
        "timestamp": f"{stamp}.{rem:06d}+0000",
        "src_ip": src, "dest_ip": dst, "src_port": sport, "dest_port": dport,
        "proto": proto,
        "alert": {"signature_id": sig, "signature": text, "severity": 2},
    })


def write_alerts(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParseDuration:
    @pytest.mark.parametrize("text,expected", [
        ("90", 90.0), ("90s", 90.0), ("15m", 900.0), ("6h", 21600.0),
        ("2d", 172800.0), ("1.5h", 5400.0), (" 10m ", 600.0),
    ])
    def test_values(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["abc", "h", "", "10w"])
    def test_bad(self, text):
        with pytest.raises(ConfigError):
            parse_duration(text)


class TestParseRatio:
    def test_values(self):
        assert parse_ratio("0.5") == 0.5
        assert parse_ratio("2/3") == pytest.approx(2 / 3)
        assert parse_ratio(" 1/4 ") == 0.25

    @pytest.mark.parametrize("text", ["x", "1/0", "/", ""])
    def test_bad(self, text):
        with pytest.raises(ConfigError):
            parse_ratio(text)


class TestParseWeights:
    def test_normalizes(self):
        w = parse_weights("3, 3, 3, 1")
        assert w.vector == pytest.approx((0.3, 0.3, 0.3, 0.1))

    @pytest.mark.parametrize("text", ["1,1", "a,b,c,d", "1,2,3,4,5",
                                      "nan,1,1,1", "1,1,1,inf",
                                      "1e308,1e308,1e308,1e308"])
    def test_bad(self, text):
        with pytest.raises(ConfigError):
            parse_weights(text)


class TestParseSource:
    def test_stdin(self):
        assert parse_source("stdin") == SourceSpec(kind="stdin")

    def test_file(self):
        spec = parse_source("file:/data/alerts.json")
        assert spec == SourceSpec(kind="file-replay", target="/data/alerts.json")

    def test_colon_in_path_without_speedup(self):
        spec = parse_source("file:/data/run:a/alerts.json")
        assert spec.target == "/data/run:a/alerts.json"

    @pytest.mark.parametrize("path", ["/data/alerts.json:25", "a:1:2", ":9",
                                      "/data/x:", ""])
    def test_file_takes_the_rest_as_path(self, path):
        assert parse_source(f"file:{path}") == SourceSpec(kind="file-replay",
                                                          target=path)

    def test_tcp(self):
        spec = parse_source("tcp:127.0.0.1:9999")
        assert spec == SourceSpec(kind="tcp-listen", target="127.0.0.1:9999")

    def test_bad(self):
        with pytest.raises(ConfigError):
            parse_source("udp:somewhere")


class TestParseConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\n\ntau = 300s\nexport_dir = out\n",
                        encoding="utf-8")
        assert parse_config_file(str(path)) == {"tau": "300s",
                                                "export_dir": "out"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("tau 300\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.conf:1"):
            parse_config_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "nope.conf"))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("tau = 300s\n# again\ntau = 5m\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.conf:3: duplicate key 'tau'"):
            parse_config_file(str(path))


class TestBuildConfig:
    def test_typed_values(self):
        cfg = build_config({"tau": "5m", "gamma": "1/2", "window": "2h",
                            "weights": "1,1,1,1", "segmenter": "gaussian",
                            "source": "file:alerts.json"})
        assert cfg.tau == 300.0
        assert cfg.gamma == 0.5
        assert cfg.window == 7200.0
        assert cfg.weights.vector == pytest.approx((0.25,) * 4)
        assert cfg.segmenter == "gaussian"
        assert cfg.source.kind == "file-replay"

    @pytest.mark.parametrize("key", ["taau", "clock_mode"])
    def test_unknown_key_is_fatal(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_config({key: "event-time"})

    def test_alias_keys(self):
        cfg = build_config({"alias_timestamp": "@timestamp",
                            "alias_src_ip": "source_address"})
        assert cfg.aliases == {"timestamp": "@timestamp",
                               "src_ip": "source_address"}

    def test_unknown_alias_is_fatal(self):
        with pytest.raises(ConfigError, match="unknown alias key"):
            build_config({"alias_color": "hue"})
        with pytest.raises(ConfigError, match="unknown alias key"):
            build_config({"alias_sensor": "host"})  # the field is not read

    def test_idle_timeout_defaults_to_twice_window(self):
        assert build_config({"window": "1h"}).idle_timeout == 7200.0
        assert build_config({"window": "1h",
                             "idle_timeout": "30m"}).idle_timeout == 1800.0

    @pytest.mark.parametrize("value", ["inf", "1e400", "1e303", "1e-7", "1e10"])
    @pytest.mark.parametrize("key", ["tau", "bin_width", "window",
                                     "pivot_horizon", "idle_timeout",
                                     "export_interval"])
    def test_duration_not_finite_in_microseconds_is_fatal(self, key, value):
        # 1e303 s is finite, but not in microseconds; 1e-7 s truncates to
        # 0 us; 1e10 s is 1e16 us, past 2**53
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            build_config({key: value})

    def test_readme_table_lists_every_config_key(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, "r", encoding="utf-8") as fh:
            lines = fh.read().split("| key | default | meaning |\n", 1)[1]
        keys = set()
        for line in lines.splitlines()[1:]:   # below the |---| row
            if not line.startswith("|"):
                break
            keys.add(line.split("|")[1].strip().strip("`"))
        assert keys == set(export_cli._PARSERS)

    def test_ais_categories_split(self):
        cfg = build_config({"ais_categories":
                            "Benign, Discovery ,CommandAndControl"})
        assert cfg.ais_categories == ("Benign", "Discovery",
                                      "CommandAndControl")


class TestRunConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": 1.5}, {"export_interval": 0.0},
        {"segmenter": "fourier"},
        {"window_n": 1}, {"tau": -1.0}, {"ks_alpha": 1.0},
        {"source": SourceSpec(kind="carrier-pigeon")},
        {"sigma_bins": math.inf}, {"smoothing_eps": math.inf},
        {"merge_threshold": math.inf},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_gamma_one_is_legal(self):
        assert RunConfig(gamma=1.0).gamma == 1.0


class TestFormatting:
    def test_iso_ts(self):
        assert iso_ts(T0_US) == "2025-03-02T00:00:00.000000Z"
        assert iso_ts(T0_US + 1_234_567) == "2025-03-02T00:00:01.234567Z"

    def test_compact_ts(self):
        assert compact_ts(T0_US) == "20250302T000000000000Z"
        assert compact_ts(T0_US + 1_234_567) == "20250302T000001234567Z"
        assert compact_ts(-46_000_000_000 * 10**6) == "05120426T141320000000Z"

    @pytest.mark.parametrize("year", [1, 512, 999, 1000, 9999])
    def test_iso_ts_round_trips_every_year(self, year):
        dt = datetime(year, 7, 4, 3, 2, 1, 123456, tzinfo=timezone.utc)
        us = (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(
            microseconds=1)
        assert iso_ts(us).startswith(f"{year:04d}-07-04T03:02:01.123456")
        assert parse_timestamp(iso_ts(us)) == us

    def test_round9(self):
        assert round9(0.123456789123) == 0.123456789
        assert round9(1 / 3) == 0.333333333
        assert round9(2.0) == 2.0
        assert round9(123456789012.0) == 123456789000.0


class TestExportPayload:
    def engine(self, tmp_path):
        cfg = RunConfig(source=SourceSpec(kind="stdin"),
                        export_dir=str(tmp_path / "out"))
        return Engine(cfg)

    def feed(self, engine, lines):
        from alertsynth.ingest import parse_alert_line
        for seq, line in enumerate(lines):
            alert = parse_alert_line(line, seq, None)
            engine.process(alert)

    def test_payload_shape(self, tmp_path):
        engine = self.engine(tmp_path)
        self.feed(engine, [eve_line(i * 0.5) for i in range(10)])
        engine.shutdown()
        payload = latest_export(str(tmp_path / "out"))
        assert payload["schema"] == "assert-models/1"
        assert payload["export_ts"].endswith("Z")
        assert len(payload["models"]) == 1
        model = payload["models"][0]
        assert set(model) == {"model_id", "created_at", "last_update_ts",
                              "effective_evidence", "pmf", "characteristic"}
        assert set(model["pmf"]) == {"ais", "service", "maneuver", "timebin"}
        for pmf in model["pmf"].values():
            assert abs(sum(pmf.values()) - 1.0) < 1e-6
        # every alert here is a probe against http from one source
        assert model["pmf"]["ais"] == {"Discovery": 1.0}
        assert model["pmf"]["service"] == {"http": 1.0}
        assert model["characteristic"]["service"] == "http"

    def test_payload_reflects_decay(self, tmp_path):
        engine = self.engine(tmp_path)
        self.feed(engine, [eve_line(i * 0.5) for i in range(10)])
        engine.shutdown()
        ms = engine.model_set
        assert ms.models[0].evidence == pytest.approx(10.0, rel=1e-9)
        ms.decay_all(engine.clock + int(10800 * 1e6))
        payload = export_payload(ms, engine.clock + int(10800 * 1e6))
        assert payload["models"][0]["effective_evidence"] == pytest.approx(
            5.0, rel=1e-9)

    def test_zero_cells_are_omitted(self, tmp_path):
        engine = self.engine(tmp_path)
        self.feed(engine, [eve_line(0.0)])
        engine.shutdown()
        payload = latest_export(str(tmp_path / "out"))
        pmfs = payload["models"][0]["pmf"]
        assert list(pmfs["ais"]) == ["Discovery"]
        assert list(pmfs["timebin"]) == ["stream_start"]


# what an export payload holds: dicts with text keys, lists, text, ints
# and floats (non-finite ones too), any of them empty
RENDER_VALUES = st.recursive(
    st.one_of(st.text(), st.integers(), st.floats()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


class TestRenderExport:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(value=RENDER_VALUES)
    def test_matches_json_dumps(self, value):
        assert render_export(value) == json.dumps(
            value, sort_keys=True, indent=2) + "\n"

    def test_matches_json_dumps_on_an_export(self, tmp_path):
        engine = Engine(RunConfig(source=SourceSpec(kind="stdin"),
                                  export_dir=str(tmp_path / "out")))
        lines = [eve_line(i * 0.5, src=f"198.51.100.{i % 3}") for i in range(30)]
        for seq, line in enumerate(lines):
            engine.process(parse_alert_line(line, seq))
        engine.shutdown()
        payload = export_payload(engine.model_set, engine.clock)
        assert payload["models"]
        assert render_export(payload) == json.dumps(
            payload, sort_keys=True, indent=2) + "\n"


class TestEvidenceSeries:
    def test_format(self):
        text = export_evidence_series(T0_US + 1_234_567,
                                      [(0, 1.5), (1, 2.0), (4, 1 / 3)])
        assert text.splitlines() == ["2025-03-02T00:00:01.234567Z,0,1.5",
                                     "2025-03-02T00:00:01.234567Z,1,2",
                                     "2025-03-02T00:00:01.234567Z,4,0.333333333"]
        assert text.endswith("\n")

    def test_empty(self):
        assert export_evidence_series(T0_US, []) == ""


class TestEngine:
    def config(self, tmp_path, alerts_path, **overrides):
        return RunConfig(source=SourceSpec(kind="file-replay",
                                           target=str(alerts_path)),
                         export_dir=str(tmp_path / "out"), **overrides)

    def test_empty_input_still_exports(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [])
        status = run(self.config(tmp_path, alerts))
        assert status == 0
        payload = latest_export(str(tmp_path / "out"))
        assert payload["models"] == []
        assert "models_live=0" in capsys.readouterr().out

    def test_accounting_invariant(self, tmp_path):
        lines = [eve_line(i * 1.0) for i in range(6)]
        lines.insert(2, "this is not json")
        lines.insert(5, json.dumps({"no": "fields"}))
        alerts = write_alerts(tmp_path / "a.json", lines)
        engine = run_engine(self.config(tmp_path, alerts))
        assert engine.stats.lines == 8
        assert engine.stats.rejected == 2
        assert engine.stats.parsed == 6
        assert engine.actions_total == 6
        assert len(engine.assignments) == 8
        assert [seq for seq, model_id in enumerate(engine.assignments)
                if model_id < 0] == [2, 5]

    def test_rejected_lines_consume_sequence_numbers(self, tmp_path):
        lines = [eve_line(0.0), "broken", eve_line(1.0)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        engine = run_engine(self.config(tmp_path, alerts))
        rows = (tmp_path / "out" / "assignments.csv").read_text().splitlines()
        assert rows[0] == "raw_seq,model_id"
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "2"]

    def test_boundary_alignment(self, tmp_path):
        lines = [eve_line(1.0), eve_line(35.5 * 60)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        engine = run_engine(self.config(tmp_path, alerts))
        stamps = [os.path.basename(p) for p in export_files(str(tmp_path / "out"))]
        expected = [T0_US + int(m * 60 * 1e6) for m in (10, 20, 30, 35.5)]
        assert stamps == [f"models-{compact_ts(us)}.json" for us in expected]
        assert engine.exports_total == 4

    def test_export_grid_is_whole_microseconds(self, tmp_path):
        # 8.2 s is 8,200,000 us (8.2 * 1e6 truncates to 8,199,999); a whole
        # second that is a multiple of 41 s lies on that grid, and the last
        # alert is put on one so that the shutdown export does too
        last = 41 - T0_US // 1_000_000 % 41 + 41
        lines = [eve_line(float(s)) for s in (0, 1, 30, last)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        run_engine(self.config(tmp_path, alerts, export_interval=8.2))
        stamps = [os.path.basename(p) for p in export_files(str(tmp_path / "out"))]
        expected = range(T0_US // 8_200_000 * 8_200_000 + 8_200_000,
                         T0_US + last * 1_000_000 + 1, 8_200_000)
        assert len(expected) > 5
        assert stamps == [f"models-{compact_ts(us)}.json" for us in expected]

    def test_last_alert_on_a_boundary_exports_each_stamp_once(self, tmp_path):
        """Each boundary is stamped below the alert that passes it, and
        shutdown at the clock: with the last alert on the 30-minute
        boundary, the stamps still strictly increase, no (export_ts,
        model_id) row repeats, and the last file lists every live model."""
        lines = [eve_line(i * 1.0) for i in range(3)]
        lines += [eve_line(700 + i * 1.0) for i in range(3)]
        lines += [eve_line(s, src="198.51.100.77") for s in (1500.0, 1800.0)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        engine = run_engine(self.config(tmp_path, alerts))
        out = tmp_path / "out"
        stamps = [T0_US + m * 60_000_000 for m in (10, 20, 30)]
        assert [os.path.basename(p) for p in export_files(str(out))] == [
            f"models-{compact_ts(us)}.json" for us in stamps]
        assert engine.exports_total == 3 and engine.clock == stamps[-1]
        live = [m.model_id for m in engine.model_set.models]
        assert [m["model_id"] for m in latest_export(str(out))["models"]] == live
        assert min(engine.assignments) >= 0
        rows = (out / "evidence.csv").read_text(encoding="utf-8").splitlines()
        keys = [tuple(row.split(",")[:2]) for row in rows[1:]]
        assert len(set(keys)) == len(keys)
        assert keys[-len(live):] == [(iso_ts(stamps[-1]), str(model_id))
                                     for model_id in live]

    def test_evidence_csv_appends_each_export(self, tmp_path):
        # the gap over tau admits the first burst before the 20-minute
        # export, the second burst lands in the shutdown export
        lines = [eve_line(i * 1.0) for i in range(3)]
        lines += [eve_line(700 + i * 1.0) for i in range(3)]
        lines.append(eve_line(1500.0, src="198.51.100.77"))
        alerts = write_alerts(tmp_path / "a.json", lines)
        engine = run_engine(self.config(tmp_path, alerts))
        out = tmp_path / "out"
        text = (out / "evidence.csv").read_text(encoding="utf-8")
        assert text.startswith(EVIDENCE_HEADER)
        assert text.count("export_ts") == 1
        expected = []
        for path in export_files(str(out)):
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            expected += [(payload["export_ts"], m["model_id"],
                          m["effective_evidence"]) for m in payload["models"]]
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(ts, int(mid), float(ev)) for ts, mid, ev in rows] == expected
        assert engine.exports_total == 3
        assert len({ts for ts, _, _ in expected}) >= 2

    def test_source_error_still_shuts_down(self, tmp_path, capsys):
        cfg = self.config(tmp_path, tmp_path / "missing.json")
        status = run(cfg)
        assert status == 1
        assert latest_export(str(tmp_path / "out"))["schema"] == "assert-models/1"
        err = capsys.readouterr().err
        assert "source error" in err

    def test_idle_stream_flushes_at_boundary(self, tmp_path):
        # one burst, then silence past idle_timeout: the gc flush must land
        # in a boundary export without waiting for shutdown
        lines = [eve_line(i * 1.0) for i in range(5)]
        lines.append(eve_line(3 * 3600, src="198.51.100.77"))
        engine = Engine(self.config(tmp_path, tmp_path / "unused.json",
                                    window=600.0, idle_timeout=1200.0))
        for seq, line in enumerate(lines):
            engine.process(parse_alert_line(line, seq))
        assert engine.aggregates_total == 1
        model_id = engine.assignments[0]
        assert model_id >= 0
        assert engine.assignments.tolist() == [model_id] * 5
        engine.shutdown()
        assert engine.aggregates_total == 2
        assert engine.assignments[:5].tolist() == [model_id] * 5
        assert engine.assignments[5] >= 0

    def test_drain_builds_each_aggregate_just_before_admitting_it(
            self, tmp_path, monkeypatch):
        lines = [eve_line(i * 1.0, src=f"198.51.100.{20 + i}") for i in range(3)]
        engine = Engine(self.config(tmp_path, tmp_path / "unused.json"))
        for seq, line in enumerate(lines):
            engine.process(parse_alert_line(line, seq))
        assert len(engine.tracker.states) == 3
        calls = []
        build, observe = export_cli.build_aggregate, engine.model_set.observe
        monkeypatch.setattr(export_cli, "build_aggregate",
                            lambda *a: calls.append("build") or build(*a))
        monkeypatch.setattr(engine.model_set, "observe",
                            lambda *a: calls.append("observe") or observe(*a))
        engine.shutdown()
        assert calls == ["build", "observe"] * 3
        assert engine.aggregates_total == 3

    def test_internal_pivot_end_to_end(self, tmp_path, capsys):
        """An intrusion that pivots from host to host inside the home network
        stays on one stream and model; an internal alert with no pivot
        behind it starts a stream of its own."""
        ext, a, b, c = "198.51.100.7", "10.0.0.5", "10.0.0.6", "10.0.0.7"
        alerts = write_alerts(tmp_path / "a.json", [
            eve_line(0, src=ext, dst=a), eve_line(1, src=a, dst=ext),
            eve_line(2, src=a, dst=b), eve_line(3, src=b, dst=c),
            eve_line(4, src=ext, dst=a),
            eve_line(7200, src="10.0.0.9", dst="10.0.0.8")])
        assert run(self.config(tmp_path, alerts)) == 0
        out = tmp_path / "out"
        assert (out / "assignments.csv").read_text() == \
            "raw_seq,model_id\n0,0\n1,0\n2,0\n3,0\n4,0\n5,1\n"
        maneuvers = {m["model_id"]: m["pmf"]["maneuver"]
                     for m in latest_export(str(out))["models"]}
        assert maneuvers == {
            0: {"inbound:stream_start": 0.2, "outbound:src_is_last_dst": 0.2,
                "internal:internal_pivot": 0.4,
                "inbound:src_is_last_dst": 0.2},
            1: {"internal:stream_start": 1.0}}

    def test_invalid_utf8_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_bytes(eve_line(0.0).encode() + b"\n\xff\xfe garbage\n"
                         + eve_line(2.0).encode() + b"\n")
        assert run(self.config(tmp_path, path)) == 0
        assert "rejected=1" in capsys.readouterr().out
        rows = (tmp_path / "out" / "assignments.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["raw_seq", "0", "2"]

    def test_numeric_address_rejected_and_ipv6_spellings_share_a_stream(
            self, tmp_path, capsys):
        lines = [eve_line(0.0),
                 eve_line(0.0, src=3405803786),
                 eve_line(0.0, src="2001:DB8::1"),
                 eve_line(1.0, src="2001:db8::1")]
        alerts = write_alerts(tmp_path / "a.json", lines)
        assert run(self.config(tmp_path, alerts)) == 0
        assert "rejected=1" in capsys.readouterr().out
        engine = run_engine(self.config(tmp_path / "again", alerts))
        assert engine.stats.rejected == 1
        assert set(engine.tracker.states) == {"198.51.100.9", "2001:db8::1"}

    def test_non_finite_timestamp_rejected(self, tmp_path, capsys):
        record = json.loads(eve_line(1.0))
        record["timestamp"] = math.inf
        lines = [eve_line(0.0), json.dumps(record), eve_line(2.0)]
        assert '"timestamp": Infinity,' in lines[1]
        alerts = write_alerts(tmp_path / "a.json", lines)
        assert run(self.config(tmp_path, alerts)) == 0
        assert "rejected=1" in capsys.readouterr().out

    def test_deeply_nested_line_rejected(self, tmp_path, capsys):
        # json.loads raises RecursionError here, not ValueError
        lines = [eve_line(0.0), "[" * 200_000, eve_line(2.0)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        assert run(self.config(tmp_path, alerts)) == 0
        assert "rejected=1" in capsys.readouterr().out
        rows = (tmp_path / "out" / "assignments.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["raw_seq", "0", "2"]


def mostly(common, rare):
    """Draws from common three times in four, else from rare."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 0 else common)


# Timestamps within two days of T0 (or one hour, for bursts), or any time
# from year 1 up to T0, in any order, as epoch seconds or ISO text, or
# unusable.  The clock only moves forward, so a far-past stamp is a late
# record unless no later stamp came before it, and reaches open buffers: a
# Gaussian buffer bins its time span, so without its late-record rule one
# from year 1 would ask for some 10**9 bins.  Each forward jump of the clock
# costs a bounded catch-up of a few dozen exports.
STAMPS_US = st.one_of(st.integers(-2 * 86400 * 10**6, 2 * 86400 * 10**6),
                    st.integers(-3600 * 10**6, 3600 * 10**6),
                    st.integers(-62_135_596_799 * 10**6 - T0_US, 0)).map(
    lambda d: T0_US + d)
ENGINE_TIMESTAMPS = mostly(
    st.one_of(STAMPS_US.map(lambda us: us / 1e6), STAMPS_US.map(iso_ts)),
    st.one_of(st.none(), st.booleans(), st.sampled_from(["", "soon", math.nan])))
# a few recurring hosts, inside and outside the homenet, so that streams,
# replies and pivots recur
HOSTS = mostly(st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.5",
                                "198.51.100.7", "203.0.113.9", "2001:db8::1"]),
               ADDRESSES)
PORTS = mostly(st.sampled_from([22, 53, 80, 88, 445, 50000]), JSON_VALUES)
ENGINE_RECORDS = st.fixed_dictionaries(
    {"timestamp": ENGINE_TIMESTAMPS, "src_ip": HOSTS, "dest_ip": HOSTS},
    optional={"src_port": PORTS, "dest_port": PORTS,
              "proto": mostly(st.sampled_from(["TCP", "udp"]), JSON_VALUES),
              "alert": st.fixed_dictionaries({}, optional={
                  "signature_id": JSON_VALUES,
                  "signature": mostly(st.sampled_from(
                      ["ET SCAN probe", "brute force", "exfil"]),
                      JSON_VALUES)})})
# one line each: no newline or carriage return inside
ENGINE_LINE = mostly(ENGINE_RECORDS.map(json.dumps), st.one_of(
    JSON_VALUES.map(json.dumps),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\r\n"), max_size=40)))
# 1 to 60 lines, any length as likely as another
ENGINE_LINES = st.integers(1, 60).flatmap(
    lambda n: st.lists(ENGINE_LINE, min_size=n, max_size=n))


class TestEngineProperties:
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(lines=ENGINE_LINES)
    def test_engine_survives_any_line(self, lines):
        """Any lines run through source, engine and shutdown, with each of
        the three segmenters, without raising; every line is counted, and
        assignments.csv holds each parsed line once and no rejected line."""
        parsed = []
        for seq, line in enumerate(lines):
            try:
                parse_alert_line(line, seq)
            except (ParseError, MissingField):
                continue
            parsed.append(seq)
        with tempfile.TemporaryDirectory() as workdir:
            alerts = os.path.join(workdir, "a.json")
            with open(alerts, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
            for segmenter in ("threshold", "gaussian", "controlchart"):
                out = os.path.join(workdir, segmenter)
                # hourly exports: up to 96 over the four days near T0,
                # plus those of one catch-up jump from the far past
                engine = run_engine(build_config({
                    "source": f"file:{alerts}", "export_dir": out,
                    "segmenter": segmenter, "export_interval": "1h"}))
                with open(os.path.join(out, "assignments.csv"),
                          encoding="utf-8") as fh:
                    rows = fh.read().splitlines()
                assert engine.counters()["alerts_in"] == len(lines)
                assert [int(row.split(",")[0]) for row in rows[1:]] == parsed


class TestMain:
    def test_tiny_file_end_to_end(self, tmp_path, capsys):
        lines = [eve_line(i * 2.0) for i in range(8)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        out = tmp_path / "out"
        status = main(["--source", f"file:{alerts}",
                       "--export-dir", str(out),
                       "--export-interval", "10m"])
        assert status == 0
        printed = capsys.readouterr().out
        assert "alerts_in=8" in printed
        assert "models_live=1" in printed
        assert (out / "evidence.csv").exists()
        assert (out / "assignments.csv").exists()
        assert latest_export(str(out))["schema"] == "assert-models/1"

    def test_cli_overrides_config_file(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        conf = tmp_path / "run.conf"
        conf.write_text(f"source = file:{alerts}\ngamma = 1\n"
                        f"export_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert main(["--config", str(conf), "--gamma", "0"]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["--config", str(conf), "--gamma", "1/2"]) == 0

    def test_duplicate_config_key_exits_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        conf = tmp_path / "run.conf"
        conf.write_text(f"source = file:{alerts}\ngamma = 1\ngamma = 1/2\n"
                        f"export_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert main(["--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "duplicate key 'gamma'" in captured.err
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_file_exits_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"# Latin-1 comment: caf\xe9\n"
                         + f"source = file:{alerts}\n".encode("utf-8"))
        assert main(["--config", str(conf),
                     "--export-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "config error: cannot read config" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_unusable_export_dir_exits_two(self, tmp_path, capsys, below):
        """An export_dir that names a regular file, or lies below one, is a
        config error before any output."""
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        blocker = tmp_path / "out"
        blocker.write_text("not a directory\n")
        export_dir = blocker.joinpath(*below)
        assert main(["--source", f"file:{alerts}",
                     "--export-dir", str(export_dir)]) == 2
        captured = capsys.readouterr()
        assert f"config error: cannot write export_dir {export_dir}" \
            in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("name", ["models-20250302T001000000000Z.json",
                                      "evidence.csv", "assignments.csv"])
    def test_reused_export_dir_exits_two(self, tmp_path, capsys, name):
        """An export_dir holding an earlier run's output is a config error
        before anything in it is written or truncated."""
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("earlier run\n")
        (out / "notes.txt").write_text("kept\n")
        assert main(["--source", f"file:{alerts}",
                     "--export-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert (f"config error: export_dir {out} holds {name} from an "
                "earlier run") in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(out)) == sorted([name, "notes.txt"])
        assert (out / name).read_text() == "earlier run\n"

    def test_path_ending_in_colon_digits_is_a_file(self, tmp_path, capsys):
        """file: takes everything after it as the path, so a name ending in
        :60 is read, not taken as a replay speed."""
        alerts = write_alerts(tmp_path / "alerts.jsonl:60",
                              [eve_line(i * 2.0) for i in range(3)])
        out = tmp_path / "out"
        assert main(["--source", f"file:{alerts}",
                     "--export-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "alerts_in=3 parsed=3" in captured.out

    def test_stdin_read_error_still_shuts_down(self, tmp_path, capsys,
                                               monkeypatch):
        class FailingStdin:
            def __iter__(self):
                yield eve_line(0.0) + "\n"
                raise OSError(5, "Input/output error")

        monkeypatch.setattr("sys.stdin", FailingStdin())
        out = tmp_path / "out"
        assert main(["--source", "stdin", "--export-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert ("source error: read failed on stdin: [Errno 5] "
                "Input/output error") in captured.err
        assert "Traceback" not in captured.err
        assert "alerts_in=1 parsed=1" in captured.out
        assert captured.out.count("\n") == 1
        assert latest_export(str(out))["schema"] == "assert-models/1"
        assert (out / "assignments.csv").read_text() == "raw_seq,model_id\n0,0\n"

    def test_weights_summing_past_float_range_exit_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        assert main(["--source", f"file:{alerts}",
                     "--weights", "1e308,1e308,1e308,1e308",
                     "--export-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "config error: component weights" in captured.err
        assert "not to a finite positive number" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_clock_mode_key_exits_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        conf = tmp_path / "run.conf"
        conf.write_text(f"source = file:{alerts}\nclock_mode = event-time\n"
                        f"export_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert main(["--config", str(conf)]) == 2
        assert "unknown config key 'clock_mode'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_homenet_file_exits_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        homenet = tmp_path / "homenet.txt"
        homenet.write_bytes(b"# caf\xe9\n10.0.0.0/8\n")
        assert main(["--source", f"file:{alerts}", "--homenet", str(homenet),
                     "--export-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "config error: cannot read homenet file" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_ais_categories_exits_two(self, tmp_path, capsys, value):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        conf = tmp_path / "run.conf"
        conf.write_text(f"source = file:{alerts}\nais_categories = {value}\n"
                        f"export_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert main(["--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert "config error: intent categories must include Discovery" \
            in captured.err
        assert captured.out == ""

    def test_unparsable_value_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"window_n = x\nexport_dir = {tmp_path / 'out'}\n",
                        encoding="utf-8")
        assert main(["--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert "config error: bad value for window_n: 'x'" in captured.err
        assert captured.out == ""

    def test_tcp_port_out_of_range_still_shuts_down(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--source", "tcp:127.0.0.1:70000",
                     "--export-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert "source error: cannot listen on 127.0.0.1:70000" in captured.err
        assert "alerts_in=0" in captured.out
        assert latest_export(str(out))["schema"] == "assert-models/1"
        assert (out / "assignments.csv").exists()

    @pytest.mark.parametrize("source", ["file:", "tcp:localhost"])
    def test_source_without_target_exits_two(self, tmp_path, capsys, source):
        """A file source with no path, or a TCP source with no integer port,
        is a config error before any output."""
        out = tmp_path / "out"
        assert main(["--source", source, "--export-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_infinite_export_interval_exits_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        assert main(["--source", f"file:{alerts}", "--export-interval", "inf",
                     "--export-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "config error: export_interval must be finite" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_sub_microsecond_export_interval_exits_two(self, tmp_path, capsys):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        assert main(["--source", f"file:{alerts}", "--export-interval", "1e-7",
                     "--export-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert ("config error: export_interval must be finite and at least "
                "1 microsecond") in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_every_flag_reaches_its_field(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(export_cli, "run", lambda cfg: seen.append(cfg) or 0)
        argv = ["--source", "file:/data/a.json",
                "--gamma", "1/2",
                "--tau", "90s",
                "--segmenter", "gaussian",
                "--window", "2h",
                "--weights", "1,1,1,1",
                "--export-interval", "15m",
                "--export-dir", str(tmp_path / "x"),
                "--ais-map", "/maps/ais.csv",
                "--port-table", "/maps/ports.csv",
                "--homenet", "/maps/homenet.txt"]
        assert main(argv) == 0
        cfg, = seen
        assert cfg.source == SourceSpec(kind="file-replay",
                                        target="/data/a.json")
        assert cfg.gamma == 0.5
        assert cfg.tau == 90.0
        assert cfg.segmenter == "gaussian"
        assert cfg.window == 7200.0
        assert cfg.weights.vector == pytest.approx((0.25,) * 4)
        assert cfg.export_interval == 900.0
        assert cfg.export_dir == str(tmp_path / "x")
        assert cfg.ais_map == "/maps/ais.csv"
        assert cfg.port_table == "/maps/ports.csv"
        assert cfg.homenet == "/maps/homenet.txt"

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("gravity = 9.8\n", encoding="utf-8")
        assert main(["--config", str(conf)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_engine_import_leaves_out_the_scenario_generator(self):
        """The engine does not load the generator, nor numpy.random with it."""
        probe = ("import sys, alertsynth.export_cli; "
                 "print(sorted({'alertsynth.synth_harness', 'numpy.random'}"
                 " & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.strip() == "[]"

    def test_module_entry_point_runs_without_warning(self):
        """The package root serves the engine names lazily, so running
        export_cli as __main__ finds no copy of it already imported."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "alertsynth.export_cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stderr == ""
        assert "usage:" in done.stdout

    def test_stdin_decodes_a_bad_byte_under_a_strict_encoding(self, tmp_path):
        """A real stdin decodes as the file and TCP sources do: a line that
        is not UTF-8 is rejected, not fatal, even where the interpreter's
        stdin encoding is strict."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   PYTHONIOENCODING="utf-8:strict")
        done = subprocess.run(
            [sys.executable, "-m", "alertsynth.export_cli", "--source", "stdin",
             "--export-dir", str(tmp_path)],
            input=eve_line(0).encode() + b"\n\xff\n", env=env,
            capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert b"parsed=1 " in done.stdout
        assert (tmp_path / "assignments.csv").exists()

    def test_package_root_serves_the_engine_names(self):
        import alertsynth
        from alertsynth import Engine as engine_cls, RunConfig as config_cls
        assert (engine_cls, config_cls, alertsynth.run) == (Engine, RunConfig, run)
        with pytest.raises(AttributeError):
            alertsynth.no_such_name
