"""Parse raw IDS alert lines and encode them as categorical actions.

Each Suricata-style JSON line becomes a point in a four-component space:
intent category (what the attacker wants), service (the protocol under
attack), maneuver (how the alert relates to its stream), and elapsed-time
bin (how long since the previous alert on that stream).
"""

from alertsynth import RunConfig, load_mappings, parse_alert_line
from alertsynth.action_space import bin_elapsed, map_ais, map_service
from alertsynth.stream_tracker import StreamTracker

LINES = [
    '{"timestamp": "2025-03-02T09:00:00.000000+0000", "event_type": "alert",'
    ' "src_ip": "198.51.100.7", "src_port": 53411, "dest_ip": "10.0.2.9",'
    ' "dest_port": 88, "proto": "TCP", "alert": {"signature_id": 2300004,'
    ' "signature": "ET POLICY brute force login attempt", "severity": 2}}',
    '{"timestamp": "2025-03-02T09:00:02.500000+0000", "event_type": "alert",'
    ' "src_ip": "198.51.100.7", "src_port": 53412, "dest_ip": "10.0.2.9",'
    ' "dest_port": 88, "proto": "TCP", "alert": {"signature_id": 2300005,'
    ' "signature": "ET EXPLOIT privilege escalation attempt", "severity": 2}}',
    '{"timestamp": "2025-03-02T09:00:03.000000+0000", "event_type": "alert",'
    ' "src_ip": "10.0.2.9", "src_port": 45123, "dest_ip": "10.0.2.44",'
    ' "dest_port": 445, "proto": "TCP", "alert": {"signature_id": 2300005,'
    ' "signature": "ET EXPLOIT privilege escalation attempt", "severity": 2}}',
]


def main():
    cfg = RunConfig()
    tables = load_mappings(cfg.ais_map, cfg.port_table, cfg.homenet)
    tracker = StreamTracker(tables.homenet, cfg.pivot_horizon, cfg.idle_timeout)

    print("alert -> (intent, service, maneuver, time bin)\n")
    for seq, line in enumerate(LINES):
        alert = parse_alert_line(line, seq)
        stream_id, direction, transition, elapsed_us = tracker.assign(alert)
        port = alert.src_port if direction == "outbound" else alert.dst_port
        encoded = (
            map_ais(alert, tables),
            map_service(port, alert.proto, tables),
            f"{direction}/{transition}",
            bin_elapsed(elapsed_us),
        )
        print(f"  {alert.src_ip}:{alert.src_port} -> "
              f"{alert.dst_ip}:{alert.dst_port}  sig {alert.signature_id}")
        print(f"    stream {stream_id}: {encoded}\n")

    print("The third alert never touches the external host, but it leaves")
    print("the victim within the pivot horizon, so it stays on the same")
    print("stream as an internal pivot.")


if __name__ == "__main__":
    main()
