"""Walk an attack-model set through its whole lifecycle.

Episodes are admitted one at a time: the first creates a model, nearby
ones fold in (associate), distant ones create rivals.  Evidence decays
exponentially between observations, models whose distributions converge
are merged, and starved models are retired.
"""

from alertsynth import ModelSet, RunConfig, SynthConfig, load_mappings
from alertsynth.action_space import Action, maneuver_index, map_service_index
from alertsynth.aggregation import build_aggregate

HOUR_US = 3_600_000_000


def main():
    cfg = RunConfig()
    tables = load_mappings(cfg.ais_map, cfg.port_table, cfg.homenet)
    ms = ModelSet(SynthConfig(), tables.cardinalities, tables.vocabularies)

    def agg(stage_names, port, n):
        move = maneuver_index("inbound", "same_src_same_dst")
        stages = [tables.ais_labels.index(name) for name in stage_names]
        actions = [Action(ais=stages[i % len(stages)],
                          service=map_service_index(port, "tcp", tables),
                          maneuver=move, timebin=4, ts=i * 2_000_000,
                          stream_id="s", raw_seq=i)
                   for i in range(n)]
        return build_aggregate(actions, tables.cardinalities)

    print(f"admission bound: {ms.bound:.3f} nats\n")

    episodes = [
        ("kerberos brute force", agg(["BruteForce"], 88, 40)),
        ("kerberos privilege escalation", agg(["PrivilegeEscalation"],
                                              88, 40)),
        ("unrelated ldap harvesting", agg(["Discovery", "Collection"],
                                          389, 40)),
    ]
    now = 0
    for title, aggregate in episodes:
        adm = ms.observe(aggregate, now)
        h = "-" if adm.h_star is None else f"{adm.h_star:.3f}"
        print(f"  t={now // HOUR_US}h  {title:32s} h*={h:>6s}"
              f"  -> {adm.action} model {adm.model_id}")
        now += HOUR_US

    print("\nsix idle hours halve the evidence twice:")
    for m in ms.models:
        print(f"  model {m.model_id}: evidence {m.evidence:.1f}")
    now += 5 * HOUR_US
    ms.decay_all(now)
    for m in ms.models:
        print(f"  model {m.model_id}: evidence {m.evidence:.1f} after decay")

    # feeding both kerberos models an identical 50/50 episode pulls their
    # distributions together until the merge threshold is crossed
    blend = agg(["BruteForce", "PrivilegeEscalation"], 88, 200)
    merges = []
    while not merges and len(ms.models) == 3:
        merges = ms.observe(blend, now).merges
        now += 60_000_000
    print(f"\nmerged pairs (absorbed <- kept): {merges}")

    for mid, feats in sorted(ms.characteristic_features().items()):
        print(f"  model {mid} characteristics: intent={feats['ais']}, "
              f"service={feats['service']}")

    now += 40 * HOUR_US
    retired = ms.retire_pass(now)
    print(f"\nafter 40 more silent hours, retired models: "
          f"{[m.model_id for m in retired]}")
    print(f"live models: {[m.model_id for m in ms.models]}")


if __name__ == "__main__":
    main()
