"""Alert ingestion: line-oriented sources parsed into Alert records.

Input is JSON-lines with Suricata-EVE style field names.  A key-alias map
in the run config adapts other IDS exports that use flat, differently
named fields.  Records missing a timestamp or either endpoint address are
counted and skipped, never fatal; addresses must be IPv4/IPv6 literals
given as JSON strings.  Each is parsed here once, into its canonical text
and its (version, int) key; no later stage parses address text.  File, TCP
and stdin sources decode bytes that are not UTF-8 as U+FFFD, whatever the
locale; a stand-in for sys.stdin that is not a TextIOWrapper is read as it
is.
"""

import calendar
import io
import json
import socket
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from ipaddress import ip_address
from typing import Dict, Iterator, Optional, Tuple


class ParseError(Exception):
    """Line is not a JSON object."""


class MissingField(Exception):
    """Line lacks a required field (timestamp, src_ip, dest_ip)."""


class SourceError(Exception):
    """Source unreachable at startup or failed mid-stream."""


@dataclass(slots=True)
class Alert:
    """One parsed IDS record, holding only the fields a pipeline stage reads
    (other keys of the record are dropped).  Each endpoint comes from one
    parse: canonical text for stream ids, transitions and pivots, and a key
    for Homenet."""

    ts: int                      # microseconds since epoch, UTC
    src_ip: str
    dst_ip: str
    src_key: Tuple[int, int]     # (4 or 6, address as an integer)
    dst_key: Tuple[int, int]
    src_port: Optional[int]
    dst_port: Optional[int]
    proto: str                   # tcp | udp | icmp | other
    signature_id: int
    signature_text: str
    raw_seq: int


@dataclass(frozen=True)
class SourceSpec:
    """Where alerts come from; exactly one source is active per run."""

    kind: str                    # file-replay | stdin | tcp-listen
    target: str = ""             # path, or host:port for tcp-listen
    speedup: float = 0.0         # replay rate multiplier; 0 = no sleeping


class IngestStats:
    """Counters kept by the ingest loop."""

    def __init__(self) -> None:
        self.lines = 0
        self.parsed = 0
        self.rejected_parse = 0
        self.rejected_missing = 0
        self.out_of_order = 0

    @property
    def rejected(self) -> int:
        return self.rejected_parse + self.rejected_missing


_PROTOCOLS = frozenset(("tcp", "udp", "icmp"))


def parse_timestamp(value) -> int:
    """Timestamp value to integer microseconds since epoch (UTC).

    Accepts ISO-8601 strings (with Z, +HH:MM, or +HHMM offsets; naive means
    UTC) and numeric epoch seconds; NaN, infinities and epochs outside
    years 1..9999 raise ValueError.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # years 1..9999 UTC, a second in from each end; false for NaN too
        if not -62135596799 <= value < 253402300799:
            raise ValueError(f"timestamp {value!r} out of range")
        return round(float(value) * 1_000_000)
    if not isinstance(value, str):
        raise ValueError(f"unsupported timestamp {value!r}")
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    elif len(text) >= 5 and text[-5] in "+-" and text[-4:].isdigit():
        text = text[:-4] + text[-4:-2] + ":" + text[-2:]
    dt = datetime.fromisoformat(text)
    try:
        utc = dt.utctimetuple()
    except OverflowError:  # the offset moves it out of years 1..9999
        raise ValueError(f"timestamp {value!r} out of range")
    # integer arithmetic end to end so microseconds survive exactly
    return calendar.timegm(utc) * 1_000_000 + dt.microsecond


def _port(value) -> Optional[int]:
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value if 0 <= value <= 65535 else None


def parse_alert_line(line: str, seq: int,
                     aliases: Optional[Dict[str, str]] = None) -> Alert:
    """Parse one input line into an Alert with raw_seq = seq.

    Raises ParseError for malformed or too deeply nested JSON and
    MissingField when timestamp, src_ip, or dest_ip is absent or unusable.
    Unknown extra keys are ignored.
    """
    try:
        record = json.loads(line)
    except (ValueError, RecursionError):
        raise ParseError(line[:120])
    if not isinstance(record, dict):
        raise ParseError(line[:120])

    def get(canonical, nested=False):
        if aliases and canonical in aliases:
            return record.get(aliases[canonical])
        if nested:
            sub = record.get("alert")
            return sub.get(canonical) if isinstance(sub, dict) else None
        return record.get(canonical)

    ts_raw = get("timestamp")
    if ts_raw is None:
        raise MissingField("timestamp")
    try:
        ts = parse_timestamp(ts_raw)
    except ValueError:
        raise MissingField("timestamp")

    endpoints = []
    for name in ("src_ip", "dest_ip"):
        raw = get(name)
        if not isinstance(raw, str):
            raise MissingField(name)  # absent, or a JSON number or bool
        try:
            endpoints.append(ip_address(raw))
        except ValueError:
            raise MissingField(name)  # host names are not accepted here
    src, dst = endpoints

    proto = str(get("proto") or "").lower()
    if proto not in _PROTOCOLS:
        proto = "other"

    sig_id = get("signature_id", nested=True)
    if isinstance(sig_id, bool) or not isinstance(sig_id, int):
        sig_id = 0
    sig_text = get("signature", nested=True)
    if not isinstance(sig_text, str):
        sig_text = ""

    # canonical text, so 2001:DB8::1 and 2001:db8::1 are one stream
    return Alert(ts=ts, src_ip=str(src), dst_ip=str(dst),
                 src_key=(src.version, int(src)), dst_key=(dst.version, int(dst)),
                 src_port=_port(get("src_port")), dst_port=_port(get("dest_port")),
                 proto=proto, signature_id=sig_id, signature_text=sig_text,
                 raw_seq=seq)


def _file_lines(path: str) -> Iterator[str]:
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise SourceError(f"cannot open {path}: {exc}")
    with fh:
        try:
            for line in fh:
                yield line
        except OSError as exc:
            raise SourceError(f"read failed on {path}: {exc}")


def _tcp_lines(target: str) -> Iterator[str]:
    # One connection at a time, newline-delimited records, ends on EOF.
    host, _, port_s = target.rpartition(":")
    try:
        server = socket.create_server((host or "127.0.0.1", int(port_s)))
    except (OSError, ValueError) as exc:
        raise SourceError(f"cannot listen on {target}: {exc}")
    with server:
        conn, _ = server.accept()
        with conn, conn.makefile("r", encoding="utf-8", errors="replace") as fh:
            try:
                for line in fh:
                    yield line
            except OSError as exc:
                raise SourceError(f"read failed on {target}: {exc}")


def open_source(spec: SourceSpec, aliases: Optional[Dict[str, str]] = None,
                stats: Optional[IngestStats] = None) -> Iterator[Alert]:
    """Yield Alerts from the configured source in arrival order.

    File replay with speedup s sleeps (gap between records)/s; speedup 0
    replays as fast as possible.  Out-of-order timestamps pass through but
    are counted.
    """
    if stats is None:
        stats = IngestStats()
    if spec.kind == "file-replay":
        lines = _file_lines(spec.target)
    elif spec.kind == "stdin":
        if isinstance(sys.stdin, io.TextIOWrapper):  # a real stdin, not a stand-in
            sys.stdin.reconfigure(encoding="utf-8", errors="replace")
        lines = iter(sys.stdin)
    elif spec.kind == "tcp-listen":
        lines = _tcp_lines(spec.target)
    else:
        raise SourceError(f"unknown source kind {spec.kind!r}")

    sleepy = spec.kind == "file-replay" and spec.speedup > 0
    prev_ts: Optional[int] = None
    seq = 0
    for line in lines:
        this_seq = seq
        seq += 1
        stats.lines += 1
        try:
            alert = parse_alert_line(line, this_seq, aliases)
        except ParseError:
            stats.rejected_parse += 1
            continue
        except MissingField:
            stats.rejected_missing += 1
            continue
        if prev_ts is not None and alert.ts < prev_ts:
            stats.out_of_order += 1
        if sleepy and prev_ts is not None and alert.ts > prev_ts:
            time.sleep((alert.ts - prev_ts) / 1e6 / spec.speedup)
        prev_ts = alert.ts
        stats.parsed += 1
        yield alert
