"""Action-space vocabularies, mapping tables, and binning."""

import ipaddress
import math
import random

import pytest

from alertsynth.action_space import (ConfigError, DEFAULT_AIS_CATEGORIES,
                                     MANEUVER_LABELS, TIME_BIN_LABELS,
                                     WeightConfig, bin_elapsed,
                                     bin_elapsed_index, load_mappings, map_ais,
                                     map_ais_index, map_service,
                                     map_service_index, maneuver_index)
from alertsynth.export_cli import RunConfig
from alertsynth.ingest import Alert
from alertsynth.synth_harness import _NOISE_TEXTS, STAGE_SIGNATURES
from oracles import ais_label_ref, ip_key_ref, mapping_rows, service_label_ref


def mk_alert(sig_id=0, text="", src="198.51.100.1", dst="10.0.0.1"):
    return Alert(ts=0, src_ip=src, dst_ip=dst, src_key=ip_key_ref(src),
                 dst_key=ip_key_ref(dst), src_port=50000, dst_port=80,
                 proto="tcp", signature_id=sig_id, signature_text=text,
                 raw_seq=0)


def default_paths():
    cfg = RunConfig()
    return cfg.ais_map, cfg.port_table, cfg.homenet


class TestVocabularies:
    def test_cardinalities(self, tables):
        ais, service, maneuver, timebin = tables.cardinalities
        assert ais == 12
        assert maneuver == 21
        assert timebin == 10
        # service labels = distinct table labels plus the three specials
        table_labels = {label for _, _, label in
                        mapping_rows(default_paths()[1], 3)}
        assert service == len(table_labels) + 3
        for special in ("ephemeral", "reserved", "other"):
            assert special in tables.service_labels

    def test_default_categories_are_distinct(self):
        assert len(set(DEFAULT_AIS_CATEGORIES)) == 12

    def test_maneuver_labels(self):
        assert len(MANEUVER_LABELS) == 21
        assert "inbound:stream_start" in MANEUVER_LABELS
        assert "internal:internal_pivot" in MANEUVER_LABELS
        idx = {maneuver_index(d, t) for d in ("inbound", "outbound", "internal")
               for t in ("stream_start", "same_src_same_dst", "same_src_new_dst",
                         "new_src_same_dst", "src_is_last_dst", "dst_is_last_src",
                         "internal_pivot")}
        assert idx == set(range(21))

    def test_vocabularies_match_cardinalities(self, tables):
        for vocab, card in zip(tables.vocabularies, tables.cardinalities):
            assert len(vocab) == card
            assert len(set(vocab)) == card


class TestServiceMapping:
    @pytest.mark.parametrize("port,proto,label", [
        (88, "tcp", "kerberos"),
        (88, "udp", "kerberos"),      # "any" row expands to both protocols
        (53, "udp", "dns"),
        (53, "tcp", "dns"),
        (80, "tcp", "http"),
        (80, "udp", "other"),         # table hit is per (port, proto)
        (1433, "tcp", "ms-sql"),
        (5985, "tcp", "wsman"),
        (0, "tcp", "reserved"),
        (None, "tcp", "reserved"),
        (49151, "tcp", "other"),
        (49152, "tcp", "ephemeral"),
        (65535, "udp", "ephemeral"),
        (12345, "tcp", "other"),
    ])
    def test_examples(self, tables, port, proto, label):
        assert map_service(port, proto, tables) == label

    def test_total_over_port_space(self, tables):
        vocab = set(tables.service_labels)
        for proto in ("tcp", "udp", "icmp", "other"):
            for port in (0, 1, 21, 22, 88, 1432, 1434, 40000, 49151, 49152,
                         60000, 65535):
                assert map_service(port, proto, tables) in vocab
        assert map_service(None, "other", tables) in vocab


class TestAisMapping:
    def test_exact_id_wins_over_text(self, tables):
        alert = mk_alert(sig_id=2022494, text="ET SCAN something")
        assert map_ais(alert, tables) == "PrivilegeEscalation"

    def test_keyword_order_specific_before_generic(self, tables):
        a = mk_alert(text="ET EXPLOIT vulnerability check against service")
        assert map_ais(a, tables) == "VulnerabilityDiscovery"
        b = mk_alert(text="ET EXPLOIT privilege escalation attempt")
        assert map_ais(b, tables) == "PrivilegeEscalation"
        c = mk_alert(text="ET EXPLOIT heap spray exploit landed")
        assert map_ais(c, tables) == "ArbitraryCodeExecution"

    def test_case_insensitive(self, tables):
        assert map_ais(mk_alert(text="BRUTE FORCE LOGIN"), tables) == "BruteForce"

    def test_unknown_defaults_to_discovery(self, tables):
        assert map_ais(mk_alert(sig_id=999, text="no match here"), tables) == "Discovery"

    def test_stage_texts_round_trip(self, tables):
        from alertsynth.synth_harness import STAGE_SIGNATURES
        for stage, (sig_id, text) in STAGE_SIGNATURES.items():
            assert map_ais(mk_alert(sig_id=sig_id, text=text), tables) == stage


class TestIndexEncodersAgainstOracles:
    """The index encoders against the rules applied straight to the rows of
    the packaged CSVs."""

    def test_service_every_port(self, tables):
        rows = [(int(port), proto, label) for port, proto, label
                in mapping_rows(default_paths()[1], 3)]
        wrong = [(port, proto) for proto in ("tcp", "udp", "icmp", "other")
                 for port in (None, *range(65536))
                 if tables.service_labels[map_service_index(port, proto, tables)]
                 != service_label_ref(port, proto, rows)]
        assert wrong == []

    def test_intent_rows_and_generator_texts(self, tables):
        rows = mapping_rows(default_paths()[0], 2)
        ids = [int(key) for key, _ in rows if key.isdigit()]
        keywords = [key for key, _ in rows if not key.isdigit()]
        assert len(ids) == 8 and len(keywords) == 25
        cases = [(sig_id, "") for sig_id in ids]
        cases += [(sig_id, "ET SCAN brute force sweep") for sig_id in ids]
        cases += [(0, f"ET TEST {keyword.upper()} seen") for keyword in keywords]
        cases += list(STAGE_SIGNATURES.values()) + list(_NOISE_TEXTS)
        cases += [(0, ""), (999, "no match here"), (2400001, ""), (-1, "x")]
        for sig_id, text in cases:
            expected = tables.ais_labels.index(ais_label_ref(sig_id, text, rows))
            assert map_ais_index(mk_alert(sig_id, text), tables) == expected, text


class TestTimeBins:
    @pytest.mark.parametrize("elapsed_us,label", [
        (None, "stream_start"),
        (0, "0s_to_1ms"),
        (500, "0s_to_1ms"),
        (999, "0s_to_1ms"),
        (1_000, "1ms_to_100ms"),      # edges are closed on the left
        (100_000, "100ms_to_1s"),
        (1_000_000, "1s_to_10s"),
        (10_000_000, "10s_to_60s"),
        (60_000_000, "60s_to_600s"),
        (600_000_000, "600s_to_1h"),
        (3_600_000_000, "1h_to_6h"),
        (21_599_999_999, "1h_to_6h"),
        (21_600_000_000, "6h_plus"),
        (10**15, "6h_plus"),
        (-5_000_000, "0s_to_1ms"),    # negative gaps clamp to zero
    ])
    def test_examples(self, elapsed_us, label):
        assert bin_elapsed(elapsed_us) == label

    def test_index_matches_label(self):
        for elapsed_us in (None, 0, 500_000, 5 * 10**6, 5 * 10**7, 5 * 10**8,
                           5 * 10**9, 5 * 10**10):
            assert (TIME_BIN_LABELS[bin_elapsed_index(elapsed_us)]
                    == bin_elapsed(elapsed_us))

    def test_whole_us_edges_match_the_seconds_edges(self):
        """Each bin edge in whole us splits gaps where its value in seconds
        does, compared as elapsed_us / 1e6 against seconds."""
        seconds = (0.001, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 21600.0)
        for edge in seconds:
            centre = round(edge * 1e6)
            for elapsed_us in range(centre - 2_000, centre + 2_000):
                assert bin_elapsed_index(elapsed_us) == 1 + sum(
                    elapsed_us / 1e6 >= e for e in seconds), elapsed_us


class TestWeightConfig:
    def test_renormalizes(self):
        w = WeightConfig.normalized(3.0, 3.0, 3.0, 1.0)
        assert abs(sum(w.vector) - 1.0) < 1e-12
        assert abs(w.w_a - 0.3) < 1e-12
        assert abs(w.w_t - 0.1) < 1e-12

    def test_one_hot_weights_allowed(self):
        w = WeightConfig.normalized(1.0, 0.0, 0.0, 0.0)
        assert w.vector == (1.0, 0.0, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            WeightConfig.normalized(0.5, -0.1, 0.4, 0.2)

    def test_zero_sum_rejected(self):
        with pytest.raises(ConfigError):
            WeightConfig.normalized(0.0, 0.0, 0.0, 0.0)

    def test_overflowing_sum_rejected(self):
        # each weight is finite, but their sum is inf: every w / inf is 0.0
        with pytest.raises(ConfigError, match="finite positive"):
            WeightConfig.normalized(1e308, 1e308, 1e308, 1e308)

    def test_each_weight_divided_by_the_float_sum(self):
        raw = (0.3, 0.3, 0.3, 0.1)  # sums to 0.9999999999999999
        assert WeightConfig.normalized(*raw).vector == tuple(
            w / sum(raw) for w in raw)


class TestLoadMappings:
    def test_duplicate_signature_id_fatal(self, tmp_path):
        ais_map, port_table, homenet = default_paths()
        bad = tmp_path / "ais.csv"
        bad.write_text("100,Discovery\n100,BruteForce\n")
        with pytest.raises(ConfigError, match="duplicate signature id"):
            load_mappings(str(bad), port_table, homenet)

    def test_unknown_category_fatal(self, tmp_path):
        _, port_table, homenet = default_paths()
        bad = tmp_path / "ais.csv"
        bad.write_text("100,Lateral\n")
        with pytest.raises(ConfigError, match="unknown intent category"):
            load_mappings(str(bad), port_table, homenet)

    def test_duplicate_port_row_fatal(self, tmp_path):
        ais_map, _, homenet = default_paths()
        bad = tmp_path / "ports.csv"
        bad.write_text("80,tcp,http\n80,any,www\n")
        with pytest.raises(ConfigError, match="duplicate port-table row"):
            load_mappings(ais_map, str(bad), homenet)

    def test_port_out_of_range_fatal(self, tmp_path):
        ais_map, _, homenet = default_paths()
        bad = tmp_path / "ports.csv"
        bad.write_text("70000,tcp,nope\n")
        with pytest.raises(ConfigError, match="out of range"):
            load_mappings(ais_map, str(bad), homenet)

    @pytest.mark.parametrize("name,text,message", [
        ("ais.csv", "100 Discovery\n", "bad intent-map row"),
        ("ports.csv", "80,tcp\n", "bad port-table row"),
        ("ports.csv", "http,tcp,web\n", "bad port number"),
    ])
    def test_malformed_row_fatal(self, tmp_path, name, text, message):
        paths = dict(zip(("ais.csv", "ports.csv"), default_paths()))
        bad = tmp_path / name
        bad.write_text(text)
        paths[name] = str(bad)
        with pytest.raises(ConfigError, match=message):
            load_mappings(paths["ais.csv"], paths["ports.csv"],
                          default_paths()[2])

    def test_bad_homenet_fatal(self, tmp_path):
        ais_map, port_table, _ = default_paths()
        bad = tmp_path / "homenet.txt"
        bad.write_text("not-a-cidr\n")
        with pytest.raises(ConfigError, match="bad homenet line"):
            load_mappings(ais_map, port_table, str(bad))

    def test_missing_file_fatal(self):
        ais_map, port_table, homenet = default_paths()
        with pytest.raises(ConfigError, match="cannot read"):
            load_mappings("/nonexistent/ais.csv", port_table, homenet)

    @pytest.mark.parametrize("which, what", [(0, "intent map"),
                                             (1, "port table"),
                                             (2, "homenet file")])
    def test_undecodable_file_fatal(self, tmp_path, which, what):
        paths = list(default_paths())
        with open(paths[which], "rb") as fh:
            body = fh.read()
        bad = tmp_path / "latin1"
        bad.write_bytes(b"# caf\xe9\n" + body)
        paths[which] = str(bad)
        with pytest.raises(ConfigError, match=f"cannot read {what} .*latin1"):
            load_mappings(*paths)

    def test_custom_categories(self, tmp_path):
        ais_map, port_table, homenet = default_paths()
        own = tmp_path / "ais.csv"
        own.write_text("100,Strange\nprobe,Discovery\n")
        tables = load_mappings(str(own), port_table, homenet,
                               ais_categories=("Discovery", "Strange"))
        assert tables.cardinalities[0] == 2
        assert map_ais(mk_alert(sig_id=100), tables) == "Strange"

    def test_categories_must_include_discovery(self, tmp_path):
        ais_map, port_table, homenet = default_paths()
        own = tmp_path / "ais.csv"
        own.write_text("100,Strange\n")
        with pytest.raises(ConfigError, match="Discovery"):
            load_mappings(str(own), port_table, homenet,
                          ais_categories=("Strange", "Other"))

    def test_empty_categories_fatal(self):
        ais_map, port_table, homenet = default_paths()
        with pytest.raises(ConfigError, match="must include Discovery"):
            load_mappings(ais_map, port_table, homenet, ais_categories=())

    def test_duplicate_categories_fatal(self):
        ais_map, port_table, homenet = default_paths()
        with pytest.raises(ConfigError, match="duplicate intent category"):
            load_mappings(ais_map, port_table, homenet,
                          ais_categories=("Discovery", "Discovery"))

    @pytest.mark.parametrize("label", ["other", "ephemeral", "reserved"])
    def test_fallback_service_label_fatal(self, tmp_path, label):
        ais_map, _, homenet = default_paths()
        bad = tmp_path / "ports.csv"
        bad.write_text(f"88,any,kerberos\n8000,tcp,{label}\n")
        with pytest.raises(ConfigError, match="repeats a fallback service"):
            load_mappings(ais_map, str(bad), homenet)


def fuzzed_addresses(networks, rng, per_net=200):
    """Addresses inside each network and just outside either end, and random
    addresses of both families, as ipaddress objects."""
    out = []
    for net in networks:
        family = type(net.network_address)
        lo, hi = int(net.network_address), int(net.broadcast_address)
        values = [rng.randint(lo, hi) for _ in range(per_net)] + [lo - 1, hi + 1]
        out += [family(v) for v in values if 0 <= v < 2 ** net.max_prefixlen]
    out += [ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(per_net)]
    out += [ipaddress.IPv6Address(rng.getrandbits(128)) for _ in range(per_net)]
    return out


class TestHomenet:
    @pytest.mark.parametrize("ip,internal", [
        ("10.1.2.3", True),
        ("172.16.0.1", True),
        ("172.31.255.254", True),
        ("172.32.0.1", False),
        ("192.168.255.255", True),
        ("192.169.0.0", False),
        ("8.8.8.8", False),
        ("203.0.113.50", False),
        ("::1", False),               # v6 is handled, just not internal here
        ("::ffff:10.0.0.1", False),   # IPv4-mapped is IPv6, matched as such
    ])
    def test_contains(self, tables, ip, internal):
        assert tables.homenet.contains(ip_key_ref(ip)) is internal

    @pytest.mark.parametrize("lines", [
        None,                          # the packaged ranges
        ["10.0.0.0/8", "192.0.2.0/24", "fe80::/10", "2001:db8::/32",
         "fd00::/8", "::ffff:10.0.0.0/104"],
    ])
    def test_contains_matches_ipaddress(self, tmp_path, lines):
        """On (version, int) keys, contains agrees with ipaddress's own
        network membership for fuzzed addresses of both families."""
        ais_map, port_table, homenet = default_paths()
        if lines is not None:
            homenet = tmp_path / "homenet.txt"
            homenet.write_text("\n".join(lines) + "\n")
        with open(homenet, "r", encoding="utf-8") as fh:
            networks = [ipaddress.ip_network(line.strip()) for line in fh
                        if line.strip() and not line.startswith("#")]
        tables = load_mappings(ais_map, port_table, str(homenet))
        rng = random.Random(len(networks))
        special = ["::ffff:10.0.0.1", "fe80::1%eth0", "fe80::1", "10.0.0.1",
                   "::", "0.0.0.0", "255.255.255.255"]
        addresses = fuzzed_addresses(networks, rng) + [
            ipaddress.ip_address(s) for s in special]
        seen = set()
        for a in addresses:
            expected = any(a in net for net in networks)
            assert tables.homenet.contains((a.version, int(a))) is expected, a
            seen.add((a.version, expected))
        assert {(4, True), (4, False), (6, False)} <= seen
