"""Configuration parsing, export formatting, and the assembled pipeline."""

import json
import math
import os

import pytest

from alertsynth import export_cli
from alertsynth.action_space import ConfigError
from alertsynth.export_cli import (EVIDENCE_HEADER, Engine, RunConfig,
                                   build_config, compact_ts,
                                   export_evidence_series, export_payload,
                                   iso_ts, main, parse_config_file,
                                   parse_duration, parse_ratio, parse_source,
                                   parse_weights, round9, run)
from alertsynth.ingest import SourceSpec, parse_alert_line
from conftest import export_files, latest_export, run_engine

T0_US = 1_740_873_600_000_000     # 2025-03-02T00:00:00Z


def eve_line(offset_s, src="198.51.100.9", dst="10.0.0.5", sport=50000,
             dport=80, proto="TCP", sig=2400001, text="ET SCAN probe"):
    us = T0_US + int(offset_s * 1e6)
    sec, rem = divmod(us, 1_000_000)
    from datetime import datetime, timezone
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

    @pytest.mark.parametrize("text", ["1,1", "a,b,c,d", "1,2,3,4,5"])
    def test_bad(self, text):
        with pytest.raises(ConfigError):
            parse_weights(text)


class TestParseSource:
    def test_stdin(self):
        assert parse_source("stdin") == SourceSpec(kind="stdin")

    def test_file(self):
        spec = parse_source("file:/data/alerts.json")
        assert spec == SourceSpec(kind="file-replay", target="/data/alerts.json")

    def test_file_with_speedup(self):
        spec = parse_source("file:/data/alerts.json:25")
        assert spec.kind == "file-replay"
        assert spec.target == "/data/alerts.json"
        assert spec.speedup == 25.0

    def test_colon_in_path_without_speedup(self):
        spec = parse_source("file:/data/run:a/alerts.json")
        assert spec.target == "/data/run:a/alerts.json"
        assert spec.speedup == 0.0

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

    def test_unknown_key_is_fatal(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"taau": "300"})

    def test_alias_keys(self):
        cfg = build_config({"alias_timestamp": "@timestamp",
                            "alias_src_ip": "source_address"})
        assert cfg.aliases == {"timestamp": "@timestamp",
                               "src_ip": "source_address"}

    def test_unknown_alias_is_fatal(self):
        with pytest.raises(ConfigError, match="unknown alias key"):
            build_config({"alias_color": "hue"})

    def test_idle_timeout_defaults_to_twice_window(self):
        assert build_config({"window": "1h"}).idle_timeout == 7200.0
        assert build_config({"window": "1h",
                             "idle_timeout": "30m"}).idle_timeout == 1800.0

    @pytest.mark.parametrize("value", ["inf", "1e400", "1e303", "1e-7"])
    @pytest.mark.parametrize("key", ["tau", "bin_width", "window",
                                     "pivot_horizon", "idle_timeout",
                                     "export_interval"])
    def test_duration_not_finite_in_microseconds_is_fatal(self, key, value):
        # 1e303 s is finite, but not in microseconds; 1e-7 s truncates to 0 us
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            build_config({key: value})

    def test_ais_categories_split(self):
        cfg = build_config({"ais_categories":
                            "Benign, Discovery ,CommandAndControl"})
        assert cfg.ais_categories == ("Benign", "Discovery",
                                      "CommandAndControl")


class TestRunConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": 1.5}, {"export_interval": 0.0},
        {"segmenter": "fourier"}, {"clock_mode": "lamport"},
        {"window_n": 1}, {"tau": -1.0}, {"ks_alpha": 1.0},
        {"source": SourceSpec(kind="carrier-pigeon")},
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


class TestEvidenceSeries:
    def test_format(self):
        text = export_evidence_series([(T0_US, 0, 1.5), (T0_US, 1, 2.0),
                                       (T0_US, 4, 1 / 3)])
        assert text.splitlines() == ["2025-03-02T00:00:00.000000Z,0,1.5",
                                     "2025-03-02T00:00:00.000000Z,1,2",
                                     "2025-03-02T00:00:00.000000Z,4,0.333333333"]
        assert text.endswith("\n")

    def test_empty(self):
        assert export_evidence_series([]) == ""


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

    def test_duplicate_export_ts_skipped(self, tmp_path):
        alerts = write_alerts(tmp_path / "a.json", [eve_line(0.0)])
        engine = run_engine(self.config(tmp_path, alerts))
        n = engine.exports_total
        engine._export(engine.clock)
        assert engine.exports_total == n

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
        engine = run_engine(self.config(tmp_path, alerts))
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

    def test_wall_time_mode_runs(self, tmp_path):
        lines = [eve_line(i * 1.0) for i in range(20)]
        alerts = write_alerts(tmp_path / "a.json", lines)
        engine = run_engine(self.config(tmp_path, alerts,
                                        clock_mode="wall-time"))
        assert engine.exports_total >= 1
        assert engine.counters()["models_live"] == 1


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
        argv = ["--source", "file:/data/a.json:4",
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
                                        target="/data/a.json", speedup=4.0)
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
