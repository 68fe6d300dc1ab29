"""How the choice of weight-transition operator shapes regime changes.

Two candidate models, thirty-two steps of evidence.  Model A explains the
data
three times better than B for the first fifteen steps, then the roles flip.
The Bayes update is identical throughout; the only difference is the
operator that turns yesterday's posterior weights into today's predictive
weights.  Pure Bayes (identity) compounds evidence forever and needs
nearly as many contrary steps to unwind as it took to wind up.  The other
operators trade some steady-state confidence for reaction speed.
"""

import numpy as np

from bdemm import (
    WeightHistory,
    WeightVector,
    WTTConfig,
    weight_step,
)

STEPS = 32
FLIP = 15


def log_evidence_at(t):
    # log likelihood of the step's observation under each model; the second
    # regime is a little clearer than the first (ratio 10:3 vs 3:1)
    if t <= FLIP:
        return np.log([0.6, 0.2])
    return np.log([0.18, 0.6])


def run(cfg):
    history = WeightHistory.start(WeightVector(np.array([0.5, 0.5])))
    track = np.zeros(STEPS)
    for t in range(1, STEPS + 1):
        # operator, then Bayes' rule on the log evidences, then append
        posterior, history, _ = weight_step(cfg, history, log_evidence_at(t))
        track[t - 1] = posterior.w[1]  # weight on model B
    return track


def crossing(track):
    for t in range(FLIP, STEPS):
        if track[t] > 0.5:
            return t + 1
    return None


def main():
    operators = [
        ("identity (pure Bayes)", WTTConfig.identity()),
        ("forgetting a=0.7", WTTConfig.forgetting(0.7)),
        ("forgetting a=0.3", WTTConfig.forgetting(0.3)),
        ("markov stay=0.9", WTTConfig.markov(np.array([[0.9, 0.1],
                                                       [0.1, 0.9]]))),
        ("polya urn b=(1,1)", WTTConfig.polya_urn([1, 1])),
        ("constant uniform", WTTConfig.constant([0.5, 0.5])),
    ]

    tracks = [(name, run(cfg)) for name, cfg in operators]

    print("weight on model B (the truth after step %d)" % FLIP)
    header = "step  " + "".join("%-22s" % name for name, _ in tracks)
    print(header)
    for t in [1, 5, 10, 15, 16, 17, 18, 20, 22, 25, 30, 32]:
        row = "%4d  " % t
        row += "".join("%-22.4f" % trk[t - 1] for _, trk in tracks)
        print(row)

    print()
    print("first step after the flip with weight(B) > 0.5")
    for name, trk in tracks:
        c = crossing(trk)
        print("  %-22s %s" % (name, "never (within horizon)" if c is None
                              else "step %d (%d steps late)" % (c, c - FLIP)))


if __name__ == "__main__":
    main()
