"""Alert ingestion: line-oriented sources parsed into Alert records.

Input is JSON-lines with Suricata-EVE style field names.  A key-alias map
in the run config adapts other IDS exports that use flat, differently
named fields.  Records missing a timestamp or either endpoint address are
counted and skipped, never fatal; addresses must be IPv4/IPv6 literals
given as JSON strings.  Each is parsed here once, by the C socket
functions, into the canonical text ipaddress would give and its
(version, int) key; no later stage parses address text.  File, TCP
and stdin sources are read through one line reader, with no pacing: each
line is parsed as it arrives, and a read error mid-stream is a
SourceError.  They decode bytes that are not UTF-8 as U+FFFD, whatever
the locale; a stand-in for sys.stdin that is not a TextIOWrapper is read
as it is.  A paced replay is a writer that paces its lines into stdin.
"""

import io
import json
import socket
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from socket import AF_INET, AF_INET6, inet_ntop, inet_pton
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
_NO_FIELDS: Dict[str, str] = {}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)
# the first and last microsecond of years 1..9999 UTC
_MIN_US = (datetime.min - _NAIVE_EPOCH) // _US
_MAX_US = (datetime.max - _NAIVE_EPOCH) // _US


def parse_timestamp(value) -> int:
    """Timestamp value to integer microseconds since epoch (UTC).

    Accepts ISO-8601 strings (with Z, +HH:MM, or +HHMM offsets, sub-second
    ones included; naive means UTC) and numeric epoch seconds; NaN,
    infinities and times outside years 1..9999 UTC raise ValueError.
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
    # timedelta floor division: integer microseconds, offset included
    us = (dt - (_NAIVE_EPOCH if dt.tzinfo is None else _EPOCH)) // _US
    if not _MIN_US <= us <= _MAX_US:  # the offset moved it out of range
        raise ValueError(f"timestamp {value!r} out of range")
    return us


def parse_address(text: str) -> Tuple[str, Tuple[int, int]]:
    """Canonical text and (version, int) key of an IPv4 or IPv6 literal,
    both as ipaddress gives them.  Raises ValueError for anything else:
    host names, scoped IPv6 (fe80::1%eth0), embedded NULs."""
    try:
        packed = inet_pton(AF_INET, text)
        return inet_ntop(AF_INET, packed), (4, int.from_bytes(packed, "big"))
    except OSError:
        pass
    try:
        packed = inet_pton(AF_INET6, text)
    except OSError:
        raise ValueError(f"not an IP address literal: {text!r}")
    key = int.from_bytes(packed, "big")
    canonical = inet_ntop(AF_INET6, packed)
    if "." in canonical:
        # inet_ntop writes ::a.b.c.d and ::ffff:a.b.c.d with a dotted tail,
        # ipaddress with the low 32 bits as two hex groups
        canonical = "%s%x:%x" % (canonical[:canonical.rindex(":") + 1],
                                 key >> 16 & 0xFFFF, key & 0xFFFF)
    return canonical, (6, key)


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

    # an alias names a top-level key, wherever the canonical field lives
    renamed = aliases or _NO_FIELDS
    key = renamed.get
    get = record.get
    sub = get("alert")
    nested = sub if isinstance(sub, dict) else _NO_FIELDS

    ts_raw = get(key("timestamp", "timestamp"))
    if ts_raw is None:
        raise MissingField("timestamp")
    try:
        ts = parse_timestamp(ts_raw)
    except ValueError:
        raise MissingField("timestamp")

    endpoints = []
    for name in ("src_ip", "dest_ip"):
        raw = get(key(name, name))
        if not isinstance(raw, str):
            raise MissingField(name)  # absent, or a JSON number or bool
        try:
            endpoints.append(parse_address(raw))
        except ValueError:
            raise MissingField(name)  # host names are not accepted here
    (src_ip, src_key), (dst_ip, dst_key) = endpoints

    proto = str(get(key("proto", "proto")) or "").lower()
    if proto not in _PROTOCOLS:
        proto = "other"

    sig_id = (get(renamed["signature_id"]) if "signature_id" in renamed
              else nested.get("signature_id"))
    if isinstance(sig_id, bool) or not isinstance(sig_id, int):
        sig_id = 0
    sig_text = (get(renamed["signature"]) if "signature" in renamed
                else nested.get("signature"))
    if not isinstance(sig_text, str):
        sig_text = ""

    # canonical text, so 2001:DB8::1 and 2001:db8::1 are one stream
    return Alert(ts=ts, src_ip=src_ip, dst_ip=dst_ip,
                 src_key=src_key, dst_key=dst_key,
                 src_port=_port(get(key("src_port", "src_port"))),
                 dst_port=_port(get(key("dest_port", "dest_port"))),
                 proto=proto, signature_id=sig_id, signature_text=sig_text,
                 raw_seq=seq)


def _lines(fh, where: str) -> Iterator[str]:
    """The lines of an open text source as they arrive; a read error ends
    the stream as a SourceError."""
    try:
        # not yield from, which would close sys.stdin with the reader
        for line in fh:
            yield line
    except OSError as exc:
        raise SourceError(f"read failed on {where}: {exc}")


def _file_lines(path: str) -> Iterator[str]:
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise SourceError(f"cannot open {path}: {exc}")
    with fh:
        yield from _lines(fh, path)


def _tcp_lines(target: str) -> Iterator[str]:
    # One connection at a time, newline-delimited records, ends on EOF.
    host, _, port_s = target.rpartition(":")
    try:
        port = int(port_s)
        if not 0 <= port <= 65535:  # create_server would leak its socket
            raise ValueError("port must be 0-65535")
        server = socket.create_server((host or "127.0.0.1", port))
    except (OSError, ValueError) as exc:
        raise SourceError(f"cannot listen on {target}: {exc}")
    with server:
        conn, _ = server.accept()
        with conn, conn.makefile("r", encoding="utf-8", errors="replace") as fh:
            yield from _lines(fh, target)


def open_source(spec: SourceSpec, aliases: Optional[Dict[str, str]] = None,
                stats: Optional[IngestStats] = None) -> Iterator[Alert]:
    """Yield Alerts from the configured source in arrival order, each as
    soon as its line is read.  Out-of-order timestamps pass through but
    are counted.
    """
    if stats is None:
        stats = IngestStats()
    if spec.kind == "file-replay":
        lines = _file_lines(spec.target)
    elif spec.kind == "stdin":
        if isinstance(sys.stdin, io.TextIOWrapper):  # a real stdin, not a stand-in
            sys.stdin.reconfigure(encoding="utf-8", errors="replace")
        lines = _lines(sys.stdin, "stdin")
    elif spec.kind == "tcp-listen":
        lines = _tcp_lines(spec.target)
    else:
        raise SourceError(f"unknown source kind {spec.kind!r}")

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
        prev_ts = alert.ts
        stats.parsed += 1
        yield alert
