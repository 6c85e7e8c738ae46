"""Split one stream's action sequence into episodes.

Three segmenters are available.  The threshold rule cuts wherever the gap
between consecutive alerts exceeds tau.  The Gaussian rule histograms a
window of activity, smooths it, and cuts at valleys between bursts.  The
control-chart rule watches the log-gap mean and closes an episode when a
gap is a statistical outlier confirmed by a distribution shift.
"""

import numpy as np

from alertsynth import RunConfig
from alertsynth.action_space import Action
from alertsynth.aggregation import SEGMENTERS


def segmenter(kind, **overrides):
    return SEGMENTERS[kind](RunConfig(**overrides))


def actions_at(times_s):
    return [Action(ais=1, service=2, maneuver=7, timebin=4,
                   ts=int(t * 1e6), stream_id="demo", raw_seq=i)
            for i, t in enumerate(times_s)]


def drive(segmenter, times_s):
    """Feed a timeline through a segmenter; returns episode sizes."""
    last = None
    episodes = []
    for action in actions_at(times_s):
        elapsed_us = None if last is None else action.ts - last
        episodes.extend(segmenter.feed(action, elapsed_us))
        last = action.ts
    episodes.extend(segmenter.flush())
    return [len(ep) for ep in episodes]


def main():
    rng = np.random.default_rng(7)

    # two tight bursts twenty minutes apart
    burst = lambda start: sorted(start + rng.uniform(0, 30, 25))
    timeline = list(burst(0.0)) + list(burst(1200.0))
    print("timeline: two 25-alert bursts separated by 20 minutes\n")
    for kind in ("threshold", "gaussian"):
        sizes = drive(segmenter(kind, tau=180.0), timeline)
        print(f"  {kind:>12}: episode sizes {sizes}")

    # a regime shift in the gap distribution: chatty then slow
    gaps = np.concatenate([rng.lognormal(0.0, 0.3, 120),
                           rng.lognormal(7.0, 0.3, 40)])
    times = np.cumsum(gaps)
    sizes = drive(segmenter("controlchart"), times)
    print(f"  {'controlchart':>12}: episode sizes {sizes}")
    print("\nThe control chart needs enough post-shift gaps to confirm the")
    print("new regime, so its boundary trails the true change slightly.")


if __name__ == "__main__":
    main()
