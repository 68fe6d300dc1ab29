"""Particle-filter ensemble shrugging off observation outliers.

The state follows a drifting autoregression and is observed through a
nonlinear map, so exact filtering is off the table and particles do the
work.  Most observations carry unit Gaussian noise, but a handful are
wrecked by a wide uniform glitch.  Two candidates share the transition and
disagree only about the noise: a Gaussian tail that trusts every
observation, and a Student-t tail that can call one absurd.  The ensemble
leans on whichever explains the step.
"""

import numpy as np

from bdemm import (
    SmcEnsembleState,
    WTTConfig,
    additive_noise_ssm,
    gaussian_noise,
    smc_bdemm_step,
    student_t_noise,
)

CONTAMINATED = frozenset({12, 13, 25, 40, 41, 42, 58})
STEPS = 70
PARTICLES = 400


def transition(x, t, rng):
    drift = 0.9 * x + 0.6 * np.sin(0.2 * t)
    return drift + rng.normal(0.0, np.sqrt(0.5), size=x.shape)


def observation(x, t):
    return x[:, 0] + 0.05 * x[:, 0] ** 2


def simulate(rng):
    xs = np.zeros(STEPS)
    ys = np.zeros(STEPS)
    x = 0.0
    for i in range(STEPS):
        t = i + 1
        x = float(transition(np.array([[x]]), t, rng)[0, 0])
        xs[i] = x
        clean = x + 0.05 * x * x
        if t in CONTAMINATED:
            ys[i] = clean + rng.uniform(-25.0, 25.0)
        else:
            ys[i] = clean + rng.normal(0.0, 1.0)
    return xs, ys


def run(pool, ys, seed):
    rng = np.random.default_rng(seed)
    state = SmcEnsembleState.initial(np.zeros((PARTICLES, 1)), k=len(pool))
    wtt = WTTConfig.forgetting(0.7)
    est = np.zeros(STEPS)
    weights = np.zeros((STEPS, len(pool)))
    for i, y in enumerate(ys):
        state, point, _ = smc_bdemm_step(state, pool, y, i + 1, wtt, rng,
                                         weight_floor=0.02)
        est[i] = point.x_hat[0]
        weights[i] = state.model_weights.w
    return est, weights


def main():
    xs, ys = simulate(np.random.default_rng(1))

    trusting = additive_noise_ssm(transition, observation, gaussian_noise(1.0))
    skeptical = additive_noise_ssm(transition, observation,
                                   student_t_noise(2.0, scale=1.0))

    ens_est, ens_w = run([trusting, skeptical], ys, seed=100)
    gauss_est, _ = run([trusting], ys, seed=100)

    hot = np.array([t + 1 in CONTAMINATED for t in range(STEPS)])

    def msqe(est, mask):
        d = est[mask] - xs[mask]
        return float(np.mean(d * d))

    print("mean squared error against the true state")
    print("%-22s %14s %14s" % ("filter", "glitched steps", "clean steps"))
    print("%-22s %14.3f %14.3f" % ("gaussian tail only",
                                   msqe(gauss_est, hot), msqe(gauss_est, ~hot)))
    print("%-22s %14.3f %14.3f" % ("ensemble of both",
                                   msqe(ens_est, hot), msqe(ens_est, ~hot)))

    print()
    print("weight on the Student-t candidate")
    print("  glitched steps: mean %.3f" % ens_w[hot, 1].mean())
    print("  clean steps:    mean %.3f" % ens_w[~hot, 1].mean())

    print()
    print("a glitch up close (step, observation, truth, ensemble, gaussian-only)")
    for t in range(38, 46):
        mark = " <- glitch" if t + 1 in CONTAMINATED else ""
        print("  %4d  %8.2f  %7.2f  %7.2f  %7.2f%s"
              % (t + 1, ys[t], xs[t], ens_est[t], gauss_est[t], mark))


if __name__ == "__main__":
    main()
