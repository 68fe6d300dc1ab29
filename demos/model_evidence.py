"""Three roads to one marginal likelihood.

The quantity that drives every weight update is the evidence: the
probability of the new observation with the state integrated out.  For a
toy conjugate pair (standard normal prior on x, observation y = 0 seen
through unit Gaussian noise) it is known exactly, which makes it a good
place to watch the estimators work.

  closed form          N(0; 0, 2) = 1 / sqrt(4 pi)
  importance sampling  average of p(y|x) over prior draws
  particle cloud       incoming-weight average of per-particle likelihoods

The engines work with log evidences; the closed form and the particle
estimate are exponentiated here to print them next to the truth.
"""

import numpy as np

from bdemm import (
    GaussianBelief,
    Proposal,
    UnnormalizedTarget,
    effective_sample_size,
    gaussian_log_evidence,
    gaussian_noise,
    is_evidence,
    mc_log_evidence,
)

TRUTH = 1.0 / np.sqrt(4.0 * np.pi)

# log N(r; 0, 1), elementwise
std_normal = gaussian_noise(1.0)


def main():
    print("closed form")
    exact = np.exp(gaussian_log_evidence(0.0, GaussianBelief(0.0, 1.0),
                                         1.0, 1.0))
    print("  exp(gaussian_log_evidence): %.6f   (1/sqrt(4 pi) = %.6f)"
          % (exact, TRUTH))

    # prior as proposal, prior x likelihood as unnormalized target
    proposal = Proposal(
        sample=lambda rng, n: rng.standard_normal((n, 1)),
        log_density=lambda x: std_normal(x[:, 0]))
    target = UnnormalizedTarget(
        log_density=lambda x: std_normal(x[:, 0]) + std_normal(0.0 - x[:, 0]))

    print()
    print("importance sampling from the prior")
    print("%10s %12s %12s %10s" % ("n", "estimate", "rel error", "ESS frac"))
    rng = np.random.default_rng(5)
    for n in (100, 1000, 10_000, 100_000, 1_000_000):
        est, weights = is_evidence(target, proposal, n, rng)
        ess = effective_sample_size(weights)
        print("%10d %12.6f %12.2e %10.2f"
              % (n, est, abs(est - TRUTH) / TRUTH, ess / n))

    print()
    print("particle cloud (equal incoming weights)")
    rng = np.random.default_rng(6)
    for n in (100, 10_000, 1_000_000):
        particles = rng.standard_normal(n)
        log_likes = std_normal(0.0 - particles)
        est = np.exp(mc_log_evidence(np.full(n, 1.0 / n), log_likes))
        print("  n=%-9d estimate %.6f   rel error %.2e"
              % (n, est, abs(est - TRUTH) / TRUTH))

    print()
    print("the self-normalized case is exact by construction")
    self_target = UnnormalizedTarget(log_density=proposal.log_density)
    est, weights = is_evidence(self_target, proposal, 1000,
                               np.random.default_rng(7))
    print("  target = normalized proposal: estimate %r, all weights 1: %s"
          % (est, bool(np.all(weights == 1.0))))


if __name__ == "__main__":
    main()
