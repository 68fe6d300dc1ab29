"""Two Kalman filters tracking one target, weighted by how well they fit.

A constant-velocity target cruises for forty steps and then starts
maneuvering (its process noise jumps by four orders of magnitude).  Neither
candidate model matches the whole trajectory, so a fixed choice loses on
one half.  The ensemble runs both and reweights them every step through a
sticky Markov transition, landing near the better single model in each
phase without being told where the switch is.
"""

import numpy as np

from bdemm import (
    GaussianBelief,
    KfEnsembleState,
    LinearGaussianModel,
    WTTConfig,
    kf_bdemm_step,
)

A = np.array([[1.0, 1.0], [0.0, 1.0]])
B = np.array([[1.0, 0.0]])
R = np.array([[0.25]])

STEPS = 80
SWITCH = 40
Q_CRUISE = 0.0025
Q_MANEUVER = 16.0


def q_matrix(accel_var):
    # discrete white-noise acceleration, unit step
    g = np.array([[0.5], [1.0]])
    return accel_var * (g @ g.T)


def simulate(rng):
    xs = np.zeros((STEPS, 2))
    ys = np.zeros(STEPS)
    x = np.array([0.0, 1.0])
    for t in range(STEPS):
        accel_var = Q_CRUISE if t < SWITCH else Q_MANEUVER
        x = A @ x + rng.multivariate_normal(np.zeros(2), q_matrix(accel_var))
        xs[t] = x
        ys[t] = x[0] + rng.normal(0.0, 0.5)
    return xs, ys


def run(pool, wtt, ys):
    state = KfEnsembleState.initial(
        GaussianBelief(np.array([0.0, 1.0]), np.eye(2) * 4.0), k=len(pool))
    means = np.zeros((len(ys), 2))
    weights = np.zeros((len(ys), len(pool)))
    for t, y in enumerate(ys):
        state, est, _ = kf_bdemm_step(state, pool, y, wtt, weight_floor=0.01)
        means[t] = est.x_hat
        weights[t] = state.model_weights.w
    return means, weights


def main():
    rng = np.random.default_rng(42)
    xs, ys = simulate(rng)

    cruise = LinearGaussianModel(A=A, Q=q_matrix(Q_CRUISE), B=B, R=R)
    maneuver = LinearGaussianModel(A=A, Q=q_matrix(Q_MANEUVER), B=B, R=R)

    sticky = WTTConfig.markov(np.array([[0.97, 0.03], [0.03, 0.97]]))
    ens_mean, ens_w = run([cruise, maneuver], sticky, ys)
    cruise_mean, _ = run([cruise], WTTConfig.identity(), ys)
    man_mean, _ = run([maneuver], WTTConfig.identity(), ys)

    def pos_rmse(means, lo, hi):
        d = means[lo:hi, 0] - xs[lo:hi, 0]
        return float(np.sqrt(np.mean(d * d)))

    print("position RMSE by phase")
    print("%-22s %10s %10s %10s" % ("filter", "cruise", "maneuver", "overall"))
    for name, m in [("cruise model only", cruise_mean),
                    ("maneuver model only", man_mean),
                    ("ensemble of both", ens_mean)]:
        print("%-22s %10.3f %10.3f %10.3f"
              % (name, pos_rmse(m, 0, SWITCH), pos_rmse(m, SWITCH, STEPS),
                 pos_rmse(m, 0, STEPS)))

    print()
    print("ensemble weight on the maneuver model")
    print("  steps  1-%d: mean %.3f" % (SWITCH, ens_w[:SWITCH, 1].mean()))
    print("  steps %d-%d: mean %.3f"
          % (SWITCH + 1, STEPS, ens_w[SWITCH:, 1].mean()))

    print()
    print("weights around the switch (step: cruise, maneuver)")
    for t in range(SWITCH - 3, SWITCH + 7):
        print("  %4d:  %.3f  %.3f" % (t + 1, ens_w[t, 0], ens_w[t, 1]))


if __name__ == "__main__":
    main()
