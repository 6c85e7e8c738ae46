"""Alert parsing and the three source kinds."""

import io
import json
import socket
import threading
import time

import pytest

from alertsynth.ingest import (Alert, IngestStats, MissingField, ParseError,
                               SourceError, SourceSpec, open_source,
                               parse_alert_line, parse_timestamp)

GOOD = ('{"timestamp": "2025-03-02T00:00:01.234567+0000", "event_type": "alert", '
        '"src_ip": "198.51.100.7", "src_port": 51234, '
        '"dest_ip": "10.0.0.5", "dest_port": 88, "proto": "TCP", '
        '"alert": {"signature_id": 2022494, "signature": "ET TEST hello", '
        '"severity": 2}}')

T0 = 1740873600_000000  # 2025-03-02T00:00:00Z in microseconds


class TestParseTimestamp:
    def test_suricata_offset(self):
        assert parse_timestamp("2025-03-02T00:00:01.234567+0000") == T0 + 1_234_567

    def test_zulu(self):
        assert parse_timestamp("2025-03-02T00:00:01.234567Z") == T0 + 1_234_567

    def test_colon_offset(self):
        assert parse_timestamp("2025-03-02T01:00:01+01:00") == T0 + 1_000_000

    def test_numeric_epoch(self):
        assert parse_timestamp(1740873601.5) == T0 + 1_500_000

    def test_microsecond_exactness(self):
        # integer arithmetic end to end, no float rounding of the epoch
        assert parse_timestamp("2025-03-02T00:00:00.000001Z") == T0 + 1

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")


class TestParseAlertLine:
    def test_good_line(self):
        a = parse_alert_line(GOOD, 7)
        assert a.ts == T0 + 1_234_567
        assert a.src_ip == "198.51.100.7"
        assert a.dst_ip == "10.0.0.5"
        assert a.src_port == 51234
        assert a.dst_port == 88
        assert a.proto == "tcp"
        assert a.signature_id == 2022494
        assert a.signature_text == "ET TEST hello"
        assert a.raw_seq == 7

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_alert_line("{not json", 0)

    def test_non_object_json(self):
        with pytest.raises(ParseError):
            parse_alert_line("[1, 2]", 0)

    def test_missing_timestamp(self):
        rec = json.loads(GOOD)
        del rec["timestamp"]
        with pytest.raises(MissingField):
            parse_alert_line(json.dumps(rec), 0)

    def test_unparseable_timestamp(self):
        rec = json.loads(GOOD)
        rec["timestamp"] = "not a time"
        with pytest.raises(MissingField):
            parse_alert_line(json.dumps(rec), 0)

    def test_missing_ip(self):
        rec = json.loads(GOOD)
        del rec["src_ip"]
        with pytest.raises(MissingField):
            parse_alert_line(json.dumps(rec), 0)

    def test_hostname_rejected(self):
        rec = json.loads(GOOD)
        rec["dest_ip"] = "victim.example.com"
        with pytest.raises(MissingField):
            parse_alert_line(json.dumps(rec), 0)

    @pytest.mark.parametrize("value", [3405803786, True, 1.5, ["10.0.0.1"],
                                       {"ip": "10.0.0.1"}])
    def test_non_string_address_rejected(self, value):
        for name in ("src_ip", "dest_ip"):
            rec = json.loads(GOOD)
            rec[name] = value
            with pytest.raises(MissingField):
                parse_alert_line(json.dumps(rec), 0)

    @pytest.mark.parametrize("raw,canonical", [
        ("2001:DB8::1", "2001:db8::1"),
        ("2001:db8:0:0:0:0:0:1", "2001:db8::1"),
        ("2001:0db8::0001", "2001:db8::1"),
        ("10.0.0.5", "10.0.0.5"),
    ])
    def test_address_is_canonicalized(self, raw, canonical):
        rec = json.loads(GOOD)
        rec["src_ip"] = raw
        rec["dest_ip"] = raw
        a = parse_alert_line(json.dumps(rec), 0)
        assert a.src_ip == canonical
        assert a.dst_ip == canonical

    def test_port_fallbacks(self):
        rec = json.loads(GOOD)
        del rec["src_port"]
        rec["dest_port"] = 99999
        a = parse_alert_line(json.dumps(rec), 0)
        assert a.src_port is None
        assert a.dst_port is None

    def test_proto_fallback(self):
        rec = json.loads(GOOD)
        rec["proto"] = "GRE"
        assert parse_alert_line(json.dumps(rec), 0).proto == "other"
        del rec["proto"]
        assert parse_alert_line(json.dumps(rec), 0).proto == "other"
        rec["proto"] = "ICMP"
        assert parse_alert_line(json.dumps(rec), 0).proto == "icmp"

    def test_signature_fallbacks(self):
        rec = json.loads(GOOD)
        del rec["alert"]
        a = parse_alert_line(json.dumps(rec), 0)
        assert a.signature_id == 0
        assert a.signature_text == ""

    def test_aliases(self):
        rec = json.loads(GOOD)
        rec["@timestamp"] = rec.pop("timestamp")
        rec["source_address"] = rec.pop("src_ip")
        aliases = {"timestamp": "@timestamp", "src_ip": "source_address"}
        a = parse_alert_line(json.dumps(rec), 0, aliases)
        assert a.ts == T0 + 1_234_567
        assert a.src_ip == "198.51.100.7"


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestOpenSource:
    def test_file_replay_counts(self, tmp_path):
        rec = json.loads(GOOD)
        rec2 = dict(rec, timestamp="2025-03-02T00:00:00.000000Z")  # older
        lines = [GOOD, "{broken", json.dumps({"timestamp": "x"}), json.dumps(rec2)]
        path = write_lines(tmp_path / "a.jsonl", lines)
        stats = IngestStats()
        alerts = list(open_source(SourceSpec("file-replay", path), stats=stats))
        assert [a.raw_seq for a in alerts] == [0, 3]  # rejects consume seq
        assert stats.lines == 4
        assert stats.parsed == 2
        assert stats.rejected_parse == 1
        assert stats.rejected_missing == 1
        assert stats.rejected == 2
        assert stats.out_of_order == 1

    def test_missing_file(self):
        with pytest.raises(SourceError):
            list(open_source(SourceSpec("file-replay", "/nonexistent.jsonl")))

    def test_unknown_kind(self):
        with pytest.raises(SourceError):
            list(open_source(SourceSpec("carrier-pigeon")))

    def test_speedup_sleeps(self, tmp_path, monkeypatch):
        rec = json.loads(GOOD)
        later = dict(rec, timestamp="2025-03-02T00:00:11.234567Z")  # +10s
        path = write_lines(tmp_path / "a.jsonl", [GOOD, json.dumps(later)])
        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        list(open_source(SourceSpec("file-replay", path, speedup=5.0)))
        assert len(naps) == 1
        assert abs(naps[0] - 2.0) < 1e-9  # 10s gap / speedup 5

    def test_speedup_zero_never_sleeps(self, tmp_path, monkeypatch):
        rec = json.loads(GOOD)
        later = dict(rec, timestamp="2025-03-02T00:00:11.234567Z")
        path = write_lines(tmp_path / "a.jsonl", [GOOD, json.dumps(later)])
        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        list(open_source(SourceSpec("file-replay", path, speedup=0.0)))
        assert naps == []

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(GOOD + "\n"))
        alerts = list(open_source(SourceSpec("stdin")))
        assert len(alerts) == 1
        assert alerts[0].dst_port == 88

    def test_tcp_listen(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        got = []

        def consume():
            spec = SourceSpec("tcp-listen", f"127.0.0.1:{port}")
            got.extend(open_source(spec))

        thread = threading.Thread(target=consume)
        thread.start()
        payload = (GOOD + "\n").encode() * 2
        for _ in range(50):
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=1) as c:
                    c.sendall(payload)
                break
            except OSError:
                time.sleep(0.05)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(got) == 2

    def test_tcp_bad_target(self):
        with pytest.raises(SourceError):
            list(open_source(SourceSpec("tcp-listen", "127.0.0.1:notaport")))
