"""Scenario generation determinism and recovery scoring."""

import json
import random

import pytest

from alertsynth.action_space import ConfigError
from alertsynth.synth_harness import (STAGE_SIGNATURES, BehaviorSpec,
                                      ScoringError, generate_scenario,
                                      load_scenario, score_recovery)
from alertsynth.synth_harness import main as harness_main
from oracles import purity_ref

BASE = dict(label="probe", sources=("203.0.113.5",), targets=("10.0.0.9",),
            service_port=80, signatures=((2400001, "ET SCAN probe"),),
            ais_mix=(1.0,), count=10, start=100.0)


def spec(**overrides):
    return BehaviorSpec(**{**BASE, **overrides})


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def write_csv(path, header, rows):
    path.write_text(header + "\n" + "".join(f"{a},{b}\n" for a, b in rows),
                    encoding="utf-8")
    return str(path)


class TestBehaviorSpecValidation:
    @pytest.mark.parametrize("overrides", [
        {"count": 0},
        {"gap_median": 0.0},
        {"signatures": ()},
        {"ais_mix": (0.5, 0.5)},
        {"ais_mix": (0.0,)},
        {"episodes": 0},
        {"period": 0.0},
        {"sources": ()},
        {"targets": ()},
        {"direction": "sideways"},
        {"start": float("inf")},
        {"period": float("inf")},
        {"gap_median": float("inf")},
        {"gap_sigma": float("inf")},
        {"service_port": 70000},
        {"service_port": -1},
    ])
    def test_rejects(self, overrides):
        with pytest.raises(ConfigError, match="behavior 'probe'"):
            spec(**overrides)


class TestGenerateScenario:
    def test_exact_count_without_noise(self, tmp_path):
        alerts, truth = generate_scenario([spec()], noise_rate=0.0,
                                          duration=3600.0, seed=1,
                                          out_dir=str(tmp_path))
        lines = read_lines(alerts)
        truth_rows = read_lines(truth)
        assert len(lines) == 10
        assert truth_rows[0] == "raw_seq,label"
        assert truth_rows[1:] == [f"{i},probe" for i in range(10)]
        first = json.loads(lines[0])
        assert first["timestamp"] == "2025-03-02T00:01:40.000000+0000"
        assert first["dest_port"] == 80
        assert first["proto"] == "TCP"
        assert first["alert"]["signature_id"] == 2400001

    def test_fewer_alerts_than_episodes(self, tmp_path):
        # each episode's share is 0, so the first takes the remainder and
        # the other four are skipped
        alerts, truth = generate_scenario(
            [spec(count=3, episodes=5, period=600.0)], noise_rate=0.0,
            duration=3600.0, seed=1, out_dir=str(tmp_path))
        stamps = [json.loads(line)["timestamp"] for line in read_lines(alerts)]
        assert len(stamps) == 3
        assert read_lines(truth)[1:] == [f"{i},probe" for i in range(3)]
        assert stamps[0] == "2025-03-02T00:01:40.000000+0000"
        assert stamps[-1] < "2025-03-02T00:11:40"  # before episode 1 starts

    def test_deterministic_per_seed(self, tmp_path):
        pair = []
        for sub in ("a", "b"):
            pair.append(generate_scenario(
                [spec()], noise_rate=500.0, duration=1800.0, seed=42,
                out_dir=str(tmp_path / sub)))
        for i in (0, 1):
            assert read_lines(pair[0][i]) == read_lines(pair[1][i])
        other = generate_scenario([spec()], noise_rate=500.0, duration=1800.0,
                                  seed=43, out_dir=str(tmp_path / "c"))
        assert read_lines(other[0]) != read_lines(pair[0][0])

    def test_noise_volume_tracks_rate(self, tmp_path):
        for seed in (5, 6):
            alerts, _ = generate_scenario(
                [spec(count=300)], noise_rate=25000.0, duration=7200.0,
                seed=seed, out_dir=str(tmp_path / str(seed)))
            n = len(read_lines(alerts))
            assert abs(n - 50300) <= 0.05 * 50300

    def test_time_sorted_output(self, tmp_path):
        alerts, _ = generate_scenario([spec(count=50)], noise_rate=2000.0,
                                      duration=1200.0, seed=9,
                                      out_dir=str(tmp_path))
        stamps = [json.loads(line)["timestamp"] for line in read_lines(alerts)]
        assert stamps == sorted(stamps)

    def test_identical_keys_are_perturbed(self, tmp_path):
        twins = [spec(label="t1", count=1), spec(label="t2", count=1)]
        alerts, truth = generate_scenario(twins, noise_rate=0.0,
                                          duration=3600.0, seed=2,
                                          out_dir=str(tmp_path))
        lines = [json.loads(line) for line in read_lines(alerts)]
        assert len(lines) == 2
        assert lines[0]["timestamp"] == "2025-03-02T00:01:40.000000+0000"
        assert lines[1]["timestamp"] == "2025-03-02T00:01:40.000001+0000"

    def test_outbound_behavior_uses_source_service_port(self, tmp_path):
        out = spec(label="exfil", direction="outbound",
                   sources=("10.0.3.7",), targets=("198.51.100.9",),
                   service_port=25)
        alerts, _ = generate_scenario([out], noise_rate=0.0, duration=3600.0,
                                      seed=3, out_dir=str(tmp_path))
        for line in read_lines(alerts):
            rec = json.loads(line)
            assert rec["src_ip"] == "10.0.3.7"
            assert rec["src_port"] == 25
            assert rec["dest_ip"] == "198.51.100.9"
            assert rec["dest_port"] >= 49152

    def test_noise_shape(self, tmp_path):
        alerts, truth = generate_scenario([], noise_rate=3000.0,
                                          duration=1200.0, seed=4,
                                          out_dir=str(tmp_path))
        labels = {row.split(",")[1] for row in read_lines(truth)[1:]}
        assert labels == {"noise"}
        ports = {80, 443, 53, 23, 445, 3389, 8080, 22}
        for line in read_lines(alerts)[:200]:
            rec = json.loads(line)
            assert rec["dest_port"] in ports
            assert rec["dest_ip"].startswith("10.0.")
            first_octet = int(rec["src_ip"].split(".")[0])
            assert 11 <= first_octet <= 126


class TestScoreRecovery:
    def test_perfect_recovery(self, tmp_path):
        truth = write_csv(tmp_path / "truth.csv", "raw_seq,label",
                          [(0, "a"), (1, "a"), (2, "noise"), (3, "b"),
                           (4, "b"), (5, "noise")])
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id",
                             [(0, 7), (1, 7), (3, 9), (4, 9)])
        result = score_recovery(truth, assigned)
        assert result["purity"] == 1.0
        assert result["model_count"] == 2
        assert result["majority"] == {"a": 7, "b": 9}
        assert result["fraction"] == {"a": 1.0, "b": 1.0}

    def test_split_label_halves_purity(self, tmp_path):
        truth = write_csv(tmp_path / "truth.csv", "raw_seq,label",
                          [(i, "a") for i in range(4)])
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id",
                             [(0, 1), (1, 1), (2, 2), (3, 2)])
        result = score_recovery(truth, assigned)
        assert result["purity"] == 0.5
        assert result["majority"] == {"a": 1}     # count tie, lower id

    def test_missing_assignment_is_fatal(self, tmp_path):
        truth = write_csv(tmp_path / "truth.csv", "raw_seq,label", [(0, "a")])
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id", [])
        with pytest.raises(ScoringError, match="raw_seq 0"):
            score_recovery(truth, assigned)

    def test_noise_rows_need_no_assignment(self, tmp_path):
        truth = write_csv(tmp_path / "truth.csv", "raw_seq,label",
                          [(0, "noise"), (1, "a")])
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id",
                             [(1, 3)])
        assert score_recovery(truth, assigned)["purity"] == 1.0

    def test_bad_header_is_fatal(self, tmp_path):
        truth = write_csv(tmp_path / "truth.csv", "seq,label", [(0, "a")])
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id",
                             [(0, 1)])
        with pytest.raises(ScoringError, match="expected header"):
            score_recovery(truth, assigned)

    def test_matches_reference_formula(self, tmp_path):
        rng = random.Random(13)
        rows = [(i, rng.choice(["a", "b", "c", "noise"])) for i in range(200)]
        models = [(i, rng.randrange(5)) for i in range(200)]
        truth = write_csv(tmp_path / "truth.csv", "raw_seq,label", rows)
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id",
                             models)
        kept = [(lab, models[i][1]) for i, lab in rows if lab != "noise"]
        expected = purity_ref([lab for lab, _ in kept],
                              [m for _, m in kept])
        assert score_recovery(truth, assigned)["purity"] == pytest.approx(
            expected, abs=1e-12)

    def test_random_assignment_scores_near_chance(self, tmp_path):
        rng = random.Random(99)
        k = 5
        rows = [(i, f"label{i % k}") for i in range(5000)]
        models = [(i, rng.randrange(k)) for i in range(5000)]
        truth = write_csv(tmp_path / "truth.csv", "raw_seq,label", rows)
        assigned = write_csv(tmp_path / "assign.csv", "raw_seq,model_id",
                             models)
        assert score_recovery(truth, assigned)["purity"] == pytest.approx(
            1 / k, abs=0.05)


class TestLoadScenario:
    SPEC = ("noise_rate = 1000\n"
            "duration = 2h\n"
            "seed = 7\n"
            "behavior.kerb.sources = 203.0.113.50\n"
            "behavior.kerb.targets = 10.0.2.9, 10.0.2.10\n"
            "behavior.kerb.service_port = 88\n"
            "behavior.kerb.stages = BruteForce, PrivilegeEscalation\n"
            "behavior.kerb.signatures = 9000001: Custom kerb probe\n"
            "behavior.kerb.ais_mix = 0.5, 0.3, 0.2\n"
            "behavior.kerb.count = 60\n"
            "behavior.kerb.start = 10m\n"
            "behavior.kerb.episodes = 2\n"
            "behavior.kerb.period = 30m\n")

    def write_spec(self, tmp_path, extra=""):
        """SPEC, where a line of extra replaces the line of the same key."""
        spec = {line.partition("=")[0].strip(): line
                for line in (self.SPEC + extra).splitlines()}
        path = tmp_path / "scenario.conf"
        path.write_text("\n".join(spec.values()) + "\n", encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        specs, noise_rate, duration, seed, t0_us = load_scenario(
            self.write_spec(tmp_path))
        assert noise_rate == 1000.0
        assert duration == 7200.0
        assert seed == 7
        assert len(specs) == 1
        b = specs[0]
        assert b.label == "kerb"
        assert b.sources == ("203.0.113.50",)
        assert b.targets == ("10.0.2.9", "10.0.2.10")
        assert b.signatures == ((9000001, "Custom kerb probe"),
                                STAGE_SIGNATURES["BruteForce"],
                                STAGE_SIGNATURES["PrivilegeEscalation"])
        assert b.ais_mix == (0.5, 0.3, 0.2)
        assert (b.count, b.start, b.episodes, b.period) == (60, 600.0, 2,
                                                            1800.0)
        alerts, truth = generate_scenario(specs, noise_rate, 600.0, seed,
                                          out_dir=str(tmp_path))
        assert len(read_lines(alerts)) > 60

    def test_unknown_global_key(self, tmp_path):
        path = tmp_path / "s.conf"
        path.write_text("noise = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown scenario key"):
            load_scenario(str(path))

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown stage"):
            load_scenario(self.write_spec(
                tmp_path, "behavior.kerb.stages = Exfiltration\n"))

    def test_malformed_behavior_key(self, tmp_path):
        path = tmp_path / "s.conf"
        path.write_text("behavior.kerb = x\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad behavior key"):
            load_scenario(str(path))

    @pytest.mark.parametrize("name", ["sources", "targets", "service_port",
                                      "ais_mix", "count"])
    def test_missing_field_fatal(self, tmp_path, name):
        path = tmp_path / "s.conf"
        kept = [line for line in read_lines(self.write_spec(tmp_path))
                if not line.startswith(f"behavior.kerb.{name} ")]
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"'kerb': missing {name}"):
            load_scenario(str(path))

    def test_unknown_behavior_field_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario key"):
            load_scenario(self.write_spec(tmp_path,
                                          "behavior.kerb.episode = 3\n"))

    def test_bad_field_value_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value for behavior.kerb.count"):
            load_scenario(self.write_spec(tmp_path,
                                          "behavior.kerb.count = many\n"))

    def test_duplicate_key_fatal(self, tmp_path):
        path = self.write_spec(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("behavior.kerb.count = 90\n")
        with pytest.raises(ConfigError, match="scenario.conf:14: duplicate key "
                                              "'behavior.kerb.count'"):
            load_scenario(path)


class TestHarnessMain:
    def test_generates_files(self, tmp_path, capsys):
        spec_path = TestLoadScenario().write_spec(tmp_path)
        out = tmp_path / "scen"
        assert harness_main(["--spec", spec_path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].endswith("alerts.jsonl")
        assert printed[1].endswith("truth.csv")
        assert (out / "alerts.jsonl").exists()
        assert (out / "truth.csv").exists()

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.conf"
        path.write_text("bogus = 1\n", encoding="utf-8")
        assert harness_main(["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert "scenario error" in captured.err
        assert captured.out == ""

    def test_undecodable_spec_names_the_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"# caf\xe9\nseed = 1\n")
        assert harness_main(["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"scenario error: cannot read scenario {path}:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("line", ["noise_rate = inf", "noise_rate = nan",
                                      "duration = inf"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, line):
        spec_path = TestLoadScenario().write_spec(tmp_path, line)
        out = tmp_path / "scen"
        assert harness_main(["--spec", spec_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("scenario error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (out / "alerts.jsonl").exists()

    def test_missing_behavior_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.conf"
        path.write_text("behavior.kerb.targets = 10.0.2.9\n", encoding="utf-8")
        assert harness_main(["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert "scenario error" in captured.err
        assert captured.out == ""
