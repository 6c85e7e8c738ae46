"""Action space definition and alert-to-action mapping tables.

An action is the categorical encoding of one alert in its stream context,
with four components: intent category (how), service (what), maneuver
(where), and elapsed-time bin (when).  This module owns the vocabularies of
all four components and the config-loaded lookup tables that map raw alert
fields onto them.
"""

import ipaddress
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class ConfigError(Exception):
    """Fatal configuration problem; raised before the pipeline starts."""


# Default intent-category vocabulary.  The list is closed per run but
# loadable from config, so its size is not hard-coded anywhere else.
DEFAULT_AIS_CATEGORIES: Tuple[str, ...] = (
    "Benign",
    "Discovery",
    "VulnerabilityDiscovery",
    "BruteForce",
    "PrivilegeEscalation",
    "ArbitraryCodeExecution",
    "Persistence",
    "DefenseEvasion",
    "Collection",
    "DataExfiltration",
    "CommandAndControl",
    "Disruption",
)

DIRECTIONS: Tuple[str, ...] = ("inbound", "outbound", "internal")

TRANSITIONS: Tuple[str, ...] = (
    "stream_start",
    "same_src_same_dst",
    "same_src_new_dst",
    "new_src_same_dst",
    "src_is_last_dst",
    "dst_is_last_src",
    "internal_pivot",
)

# 3 directions x 7 transitions, fixed 21-cell vocabulary.
MANEUVER_LABELS: Tuple[str, ...] = tuple(
    f"{d}:{t}" for d in DIRECTIONS for t in TRANSITIONS)
_MANEUVER_INDEX: Dict[Tuple[str, str], int] = {
    tuple(label.split(":")): i for i, label in enumerate(MANEUVER_LABELS)}

# Elapsed-time bins, closed-left / open-right, plus the stream-start sentinel.
TIME_BIN_LABELS: Tuple[str, ...] = (
    "stream_start",
    "0s_to_1ms",
    "1ms_to_100ms",
    "100ms_to_1s",
    "1s_to_10s",
    "10s_to_60s",
    "60s_to_600s",
    "600s_to_1h",
    "1h_to_6h",
    "6h_plus",
)
_BIN_EDGES_US: Tuple[int, ...] = (1_000, 100_000, 1_000_000, 10_000_000,
                                  60_000_000, 600_000_000, 3_600_000_000,
                                  21_600_000_000)

EPHEMERAL_PORT_FLOOR = 49152
# Service labels of ports with no table row, after the table's own labels.
_FALLBACK_SERVICES: Tuple[str, ...] = ("ephemeral", "reserved", "other")

# Component order used for every per-component vector in the package.
COMPONENTS: Tuple[str, ...] = ("ais", "service", "maneuver", "timebin")


@dataclass(frozen=True)
class WeightConfig:
    """Per-component weights (w_a, w_s, w_v, w_t), normalized to sum 1."""

    w_a: float
    w_s: float
    w_v: float
    w_t: float

    @classmethod
    def normalized(cls, w_a: float, w_s: float, w_v: float, w_t: float) -> "WeightConfig":
        raw = (w_a, w_s, w_v, w_t)
        if not all(0 <= w < math.inf for w in raw):
            raise ConfigError(f"negative or non-finite component weight in {raw}")
        total = sum(raw)
        if not 0 < total < math.inf:
            raise ConfigError(f"component weights in {raw} sum to {total}, "
                              "not to a finite positive number")
        return cls(*(w / total for w in raw))

    @property
    def vector(self) -> Tuple[float, float, float, float]:
        return (self.w_a, self.w_s, self.w_v, self.w_t)


@dataclass(slots=True)
class Action:
    """One alert encoded as a point in the action space.

    Component values are stored as vocabulary indices; the mapping tables
    hold the index-to-label correspondence.
    """

    ais: int
    service: int
    maneuver: int
    timebin: int
    ts: int            # microseconds since epoch, UTC
    stream_id: str
    raw_seq: int


class Homenet:
    """Set of CIDR ranges defining which addresses count as internal, tested
    on (version, int) keys: an IPv4-mapped address meets the IPv6 ranges."""

    def __init__(self, networks: Sequence) -> None:
        self._ranges: Dict[int, List[Tuple[int, int]]] = {4: [], 6: []}
        for net in networks:
            self._ranges[net.version].append(
                (int(net.network_address), int(net.netmask)))

    def contains(self, key: Tuple[int, int]) -> bool:
        version, value = key
        for base, mask in self._ranges[version]:
            if value & mask == base:
                return True
        return False


class MappingTables:
    """Immutable lookup tables built once at startup and shared read-only.

    The label tuples give each component's vocabulary in index order; the
    mapping files are kept only in the index-valued forms the encoders read
    per alert (signature id and keyword to intent index, (port, proto) to
    service index).
    """

    def __init__(self, ais_by_id: Dict[int, str], keyword_rules: List[Tuple[str, str]],
                 port_labels: Dict[Tuple[int, str], str], homenet: Homenet,
                 ais_categories: Sequence[str]) -> None:
        self.homenet = homenet
        self.ais_labels: Tuple[str, ...] = tuple(ais_categories)
        table_labels = tuple(sorted(set(port_labels.values())))
        if set(table_labels) & set(_FALLBACK_SERVICES):
            raise ConfigError("a port-table label repeats a fallback service name")
        self.service_labels: Tuple[str, ...] = table_labels + _FALLBACK_SERVICES
        self.vocabularies: Tuple[Tuple[str, ...], ...] = (
            self.ais_labels, self.service_labels, MANEUVER_LABELS, TIME_BIN_LABELS)
        self.cardinalities: Tuple[int, int, int, int] = tuple(
            len(v) for v in self.vocabularies)

        ais_index = {name: i for i, name in enumerate(self.ais_labels)}
        if "Discovery" not in ais_index:
            raise ConfigError("intent categories must include Discovery (the default)")
        self._default_ais = ais_index["Discovery"]
        try:
            self._ais_by_id = {sig_id: ais_index[name]
                               for sig_id, name in ais_by_id.items()}
            self._keyword_rules = [(keyword, ais_index[name])
                                   for keyword, name in keyword_rules]
        except KeyError as exc:
            raise ConfigError(f"unknown intent category {exc.args[0]!r} in mapping")
        service_index = {name: i for i, name in enumerate(self.service_labels)}
        self._port_index = {key: service_index[label]
                            for key, label in port_labels.items()}
        self._ephemeral, self._reserved, self._other = range(
            len(table_labels), len(self.service_labels))


def load_mappings(ais_map_file: str, port_table_file: str, homenet_file: str,
                  ais_categories: Optional[Sequence[str]] = None) -> MappingTables:
    """Load the three mapping files into lookup tables.

    Duplicate signature ids, duplicate (port, proto) rows, unknown
    intent-category names, and port-table labels that repeat a fallback
    service name are all fatal config errors.
    """
    categories = (DEFAULT_AIS_CATEGORIES if ais_categories is None
                  else tuple(ais_categories))
    if len(set(categories)) != len(categories):
        raise ConfigError("duplicate intent category in configured list")

    ais_by_id: Dict[int, str] = {}
    keyword_rules: List[Tuple[str, str]] = []
    for _, line in data_lines(ais_map_file, "intent map"):
        parts = [p.strip() for p in line.rsplit(",", 1)]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ConfigError(f"bad intent-map row {line!r}")
        key, ais = parts
        if key in ("signature_id", "keyword") and ais == "ais":
            continue  # header row
        try:
            sig_id = int(key)
        except ValueError:
            keyword_rules.append((key.lower(), ais))
            continue
        if sig_id in ais_by_id:
            raise ConfigError(f"duplicate signature id {sig_id} in intent map")
        ais_by_id[sig_id] = ais

    port_labels: Dict[Tuple[int, str], str] = {}
    for _, line in data_lines(port_table_file, "port table"):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"bad port-table row {line!r}")
        port_s, proto, label = parts
        if (port_s, proto, label) == ("port", "proto", "label"):
            continue  # header row
        try:
            port = int(port_s)
        except ValueError:
            raise ConfigError(f"bad port number {port_s!r}")
        if not 0 <= port <= 65535:
            raise ConfigError(f"port {port} out of range")
        protos = ("tcp", "udp") if proto == "any" else (proto,)
        for p in protos:
            if (port, p) in port_labels:
                raise ConfigError(f"duplicate port-table row for ({port}, {p})")
            port_labels[(port, p)] = label

    networks = []
    for _, line in data_lines(homenet_file, "homenet file"):
        try:
            networks.append(ipaddress.ip_network(line, strict=False))
        except ValueError as exc:
            raise ConfigError(f"bad homenet line {line!r}: {exc}")

    tables = MappingTables(ais_by_id, keyword_rules, port_labels,
                           Homenet(networks), categories)
    return tables


def data_lines(path: str, what: str) -> List[Tuple[int, str]]:
    """(line number, stripped text) of each line of a UTF-8 startup file
    that is neither blank nor a # comment.  A file that cannot be opened,
    read or decoded is a ConfigError naming what it is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(lineno, line)
                    for lineno, line in enumerate(map(str.strip, fh), 1)
                    if line and not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def map_ais(alert, tables: MappingTables) -> str:
    return tables.ais_labels[map_ais_index(alert, tables)]


def map_ais_index(alert, tables: MappingTables) -> int:
    """Intent index for an alert: exact id hit, first keyword rule in file
    order, or Discovery."""
    hit = tables._ais_by_id.get(alert.signature_id)
    if hit is not None:
        return hit
    text = alert.signature_text.lower()
    for keyword, index in tables._keyword_rules:
        if keyword in text:
            return index
    return tables._default_ais


def map_service(port: Optional[int], proto: str, tables: MappingTables) -> str:
    return tables.service_labels[map_service_index(port, proto, tables)]


def map_service_index(port: Optional[int], proto: str, tables: MappingTables) -> int:
    """Service index for a (port, proto) pair; total over all inputs."""
    hit = tables._port_index.get((port, proto))
    if hit is not None:
        return hit
    if port is None or port == 0:
        return tables._reserved
    if port >= EPHEMERAL_PORT_FLOOR:
        return tables._ephemeral
    return tables._other


def bin_elapsed(elapsed_us: Optional[int]) -> str:
    """Time bin label for an elapsed gap in whole microseconds; None marks
    stream start."""
    return TIME_BIN_LABELS[bin_elapsed_index(elapsed_us)]


def bin_elapsed_index(elapsed_us: Optional[int]) -> int:
    if elapsed_us is None:
        return 0
    return 1 + bisect_right(_BIN_EDGES_US, elapsed_us)  # a negative gap bins as 0


def maneuver_index(direction: str, transition: str) -> int:
    return _MANEUVER_INDEX[direction, transition]
