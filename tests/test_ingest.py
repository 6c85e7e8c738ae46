"""Alert parsing and the three source kinds."""

import io
import ipaddress
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import alertsynth.ingest
from alertsynth.export_cli import Engine, build_config
from alertsynth.ingest import (Alert, IngestStats, MissingField, ParseError,
                               SourceError, SourceSpec, open_source,
                               parse_alert_line, parse_timestamp)
from oracles import ip_key_ref

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

    def test_sub_second_offset(self):
        # 00:00:01.7 at UTC+1.25 s is 00:00:00.45 UTC
        assert parse_timestamp(
            "2025-03-02T00:00:01.700000+00:00:01.250000") == T0 + 450_000

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan"), 1e20, -1e12, 10 ** 400,
                                       "0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:59:59-01:00"])
    def test_non_finite_or_out_of_range_raises(self, value):
        # years 1..9999 UTC only: anything else used to overflow here or in
        # the exporter's timestamp formatting
        with pytest.raises(ValueError):
            parse_timestamp(value)


class TestParseAlertLine:
    def test_good_line(self):
        a = parse_alert_line(GOOD, 7)
        assert a.ts == T0 + 1_234_567
        assert a.src_ip == "198.51.100.7"
        assert a.dst_ip == "10.0.0.5"
        assert a.src_key == (4, 0xC6336407)
        assert a.dst_key == (4, 0x0A000005)
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

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "1e999", "NaN"])
    def test_non_finite_timestamp_rejected(self, text):
        line = GOOD.replace('"2025-03-02T00:00:01.234567+0000"', text)
        assert f'"timestamp": {text},' in line
        with pytest.raises(MissingField):
            parse_alert_line(line, 0)

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
        rec["rule_id"] = 7   # an alias reads a nested field from the top level
        aliases = {"timestamp": "@timestamp", "src_ip": "source_address",
                   "signature_id": "rule_id"}
        a = parse_alert_line(json.dumps(rec), 0, aliases)
        assert a.ts == T0 + 1_234_567
        assert a.src_ip == "198.51.100.7"
        assert a.signature_id == 7
        assert a.signature_text == "ET TEST hello"  # not aliased: still nested


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=12)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=6)
TIMESTAMPS = st.one_of(
    JSON_VALUES,
    st.datetimes().map(lambda d: d.isoformat()),
    st.datetimes().map(lambda d: d.strftime("%Y-%m-%dT%H:%M:%S.%f+0000")),
    st.datetimes().map(lambda d: d.isoformat() + "Z"))
QUADS = st.tuples(*[st.integers(0, 300)] * 4)
ADDRESSES = st.one_of(
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded.upper()),
    st.ip_addresses(v=6).map(lambda a: str(a).upper()),
    st.tuples(st.ip_addresses(v=6), st.text(max_size=6)).map(
        lambda t: f"{t[0]}%{t[1]}"),
    QUADS.map(lambda q: ".".join(map(str, q))),
    QUADS.map(lambda q: ".".join(f"{x:03d}" for x in q)),    # leading zeros
    st.ip_addresses(v=4).map(lambda a: f"::ffff:{a}"),
    st.ip_addresses(v=4).map(lambda a: f"::{a}"),           # IPv4-compatible
    QUADS.map(lambda q: "::" + ".".join(map(str, q))),
    # dotted tails with a zero group: ::0.0.a.b, ::a.b.0.0 and mapped ones
    st.integers(0, 0xFFFF).map(lambda x: f"::{ipaddress.IPv4Address(x)}"),
    st.integers(0, 0xFFFF).map(lambda x: f"::{ipaddress.IPv4Address(x << 16)}"),
    st.integers(0, 0xFFFF).map(lambda x: f"::ffff:{ipaddress.IPv4Address(x)}"),
    st.ip_addresses().map(int),
    JSON_VALUES)
RECORDS = st.fixed_dictionaries(
    {"timestamp": TIMESTAMPS, "src_ip": ADDRESSES, "dest_ip": ADDRESSES},
    optional={"src_port": JSON_VALUES, "dest_port": JSON_VALUES,
              "proto": JSON_VALUES, "sensor": JSON_VALUES,
              "alert": st.one_of(JSON_VALUES, st.fixed_dictionaries(
                  {}, optional={"signature_id": JSON_VALUES,
                                "signature": JSON_VALUES}))})
# records twice as often as other JSON values or plain text
LINES = st.one_of(RECORDS.map(json.dumps), RECORDS.map(json.dumps),
                  JSON_VALUES.map(json.dumps), st.text(max_size=40))


class TestParseAlertLineProperties:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(line=LINES)
    def test_raises_only_its_errors_and_parses_like_ipaddress(self, line):
        """Any line either raises ParseError/MissingField or yields
        endpoints that are ipaddress's canonical text and (version, int)."""
        try:
            alert = parse_alert_line(line, 3)
        except (ParseError, MissingField):
            return
        record = json.loads(line)
        assert alert.src_ip == str(ipaddress.ip_address(record["src_ip"]))
        assert alert.dst_ip == str(ipaddress.ip_address(record["dest_ip"]))
        assert alert.src_key == ip_key_ref(record["src_ip"])
        assert alert.dst_key == ip_key_ref(record["dest_ip"])
        assert alert.raw_seq == 3


class TestOneParsePerEndpoint:
    def test_two_address_constructions_per_parsed_line(self, tmp_path,
                                                       monkeypatch):
        """Ingest parses each endpoint once; direction, stream keys, pivots
        and export read the alert's text and keys without parsing again."""
        ext, victim, next_hop = "198.51.100.7", "10.0.0.5", "10.0.0.6"
        rec = json.loads(GOOD)
        lines = [json.dumps(dict(rec, timestamp=T0 / 1e6 + k,
                                 src_ip=src, dest_ip=dst))
                 for k, (src, dst) in enumerate([
                     (ext, victim),           # inbound
                     (victim, ext),           # outbound reply
                     (victim, next_hop),      # internal pivot
                     (ext, victim)])]
        path = write_lines(tmp_path / "a.jsonl", lines)
        config = build_config({"source": f"file:{path}",
                               "export_dir": str(tmp_path / "out")})
        engine = Engine(config)
        parses = []
        real = alertsynth.ingest.parse_address

        def spy(text):
            parses.append(text)
            return real(text)

        monkeypatch.setattr(alertsynth.ingest, "parse_address", spy)
        monkeypatch.setattr(ipaddress, "ip_address", spy)
        for alert in open_source(config.source, None, engine.stats):
            engine.process(alert)
        assert list(engine.tracker.states) == [ext]  # the pivot stayed on
        engine.shutdown()
        assert engine.stats.parsed == len(lines)
        assert engine.actions_total == len(lines)
        assert len(parses) == 2 * len(lines)


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

    def test_file_replay_replaces_invalid_utf8(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(GOOD.encode() + b"\n\xff\xfe garbage\n"
                         + GOOD.replace("hello", "h\xe9llo").encode("latin-1")
                         + b"\n")
        stats = IngestStats()
        alerts = list(open_source(SourceSpec("file-replay", str(path)),
                                  stats=stats))
        assert [a.raw_seq for a in alerts] == [0, 2]
        assert stats.rejected_parse == 1
        assert alerts[1].signature_text == "ET TEST h\ufffdllo"

    def test_missing_file(self):
        with pytest.raises(SourceError):
            list(open_source(SourceSpec("file-replay", "/nonexistent.jsonl")))

    def test_unknown_kind(self):
        with pytest.raises(SourceError):
            list(open_source(SourceSpec("carrier-pigeon")))

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
        # the undecodable middle line is rejected, not fatal
        line = (GOOD + "\n").encode()
        payload = line + b"\xff\n" + line
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

    def test_tcp_port_out_of_range(self):
        with pytest.raises(SourceError, match="cannot listen on 127.0.0.1:70000"):
            list(open_source(SourceSpec("tcp-listen", "127.0.0.1:70000")))
