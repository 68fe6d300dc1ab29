"""Acceptance gate: ten criteria, one visible pass/fail line each.

Run with plain ``pytest``; each criterion prints its verdict outside the
capture so the lines always reach the terminal.
"""

import time

import numpy as np
from scipy.stats import norm

from bdemm import (
    GaussianBelief,
    KfEnsembleState,
    LinearGaussianModel,
    PredictiveGaussian,
    Proposal,
    SmcEnsembleState,
    ToyConfig,
    UnnormalizedTarget,
    WeightVector,
    WTTConfig,
    apply_wtt,
    collapse_mixture,
    gp_predict_next,
    is_evidence,
    kf_bdemm_step,
    linear_gaussian_ssm,
    poe_combine,
    run_toy_experiment,
    smc_bdemm_step,
)
from bdemm.cli import main
from bdemm.core import WeightHistory
from bdemm.gpts import GPTSModel
from bdemm.wtt import KINDS


def _verdict(capsys, num, ok, detail):
    line = "criterion %2d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_benchmark_ordering(capsys):
    # ten batches of the full benchmark, one seed each: the ensemble beats
    # the single-model Gaussian filter, which beats the open-loop uniform
    # filter, in at least eight batches, under a minute overall
    t0 = time.time()
    hits = 0
    for batch in range(10):
        rep = run_toy_experiment(ToyConfig(seed=batch))
        e = rep.mse_mean["ensemble"]
        g = rep.mse_mean["gaussian_only"]
        u = rep.mse_mean["uniform_only"]
        if e < g < u:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 8 and elapsed < 60.0
    _verdict(capsys, 1, ok,
             "mse ordering ensemble < gaussian < uniform in %d/10 batches, "
             "%.1fs (gates: >= 8/10 and < 60s)" % (hits, elapsed))


def test_criterion_02_outlier_weight_responsiveness(capsys):
    # the wide-noise candidate's averaged posterior weight spikes on the
    # contaminated steps: at least twice its clean-step average, 30 runs
    cfg = ToyConfig()
    rep = run_toy_experiment(cfg)
    steps = np.arange(1, cfg.horizon + 1)
    hot = np.isin(steps, sorted(cfg.outlier_steps))
    share = rep.avg_weights[:, 1]
    on_mean = float(share[hot].mean())
    off_mean = float(share[~hot].mean())
    ratio = on_mean / off_mean
    _verdict(capsys, 2, ratio >= 2.0,
             "wide-noise model weight, outlier steps %.3f vs clean steps "
             "%.3f, ratio %.2f (gate: >= 2.0)" % (on_mean, off_mean, ratio))


def test_criterion_03_single_model_kf_recovers_textbook(capsys):
    # K = 1 ensemble against a plain inverse-based Kalman filter,
    # 100 random steps, agreement to 1e-10
    rng = np.random.default_rng(303)
    a = np.array([[0.9, 0.1], [0.0, 0.8]])
    q = np.array([[0.2, 0.05], [0.05, 0.3]])
    b = np.array([[1.0, 0.5]])
    r = np.array([[0.5]])
    model = LinearGaussianModel(A=a, Q=q, B=b, R=r)
    mean = np.zeros(2)
    cov = np.eye(2)
    state = KfEnsembleState.initial(GaussianBelief(mean, cov), k=1)

    worst = 0.0
    for _ in range(100):
        y = rng.normal(0.0, 2.0)
        state, _, _ = kf_bdemm_step(state, [model], y, WTTConfig.identity())
        mean = a @ mean
        cov = a @ cov @ a.T + q
        s = b @ cov @ b.T + r
        gain = cov @ b.T @ np.linalg.inv(s)
        mean = mean + gain @ (np.atleast_1d(y) - b @ mean)
        cov = (np.eye(2) - gain @ b) @ cov
        worst = max(worst,
                    float(np.abs(state.belief.mean - mean).max()),
                    float(np.abs(state.belief.cov - cov).max()))
    _verdict(capsys, 3, worst < 1e-10,
             "single-model KF vs textbook filter, 100 steps, "
             "max |dev| = %.2e (gate: < 1e-10)" % worst)


def test_criterion_04_single_model_smc_consistency(capsys):
    # the particle engine on a linear-Gaussian system tracks the exact
    # Kalman posterior mean, and its error shrinks as particles grow
    a_c, q_c, b_c, r_c = 0.9, 0.25, 1.0, 1.0
    data_rng = np.random.default_rng(1000)
    x = 0.0
    ys = []
    for _ in range(50):
        x = a_c * x + data_rng.normal(0.0, np.sqrt(q_c))
        ys.append(x + data_rng.normal(0.0, np.sqrt(r_c)))

    kf_model = LinearGaussianModel(A=a_c, Q=q_c, B=b_c, R=r_c)
    kf_state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=1)
    kf_means = np.empty(50)
    for i, y in enumerate(ys):
        kf_state, est, _ = kf_bdemm_step(kf_state, [kf_model], y,
                                         WTTConfig.identity())
        kf_means[i] = est.x_hat[0]

    smc_model = linear_gaussian_ssm(A=[[a_c]], Q=[[q_c]], B=[[b_c]], R=[[r_c]])

    def run_smc(n, seed):
        rng = np.random.default_rng(seed)
        st = SmcEnsembleState.initial(rng.normal(0.0, 1.0, size=(n, 1)), k=1)
        out = np.empty(50)
        for i, y in enumerate(ys):
            st, est, _ = smc_bdemm_step(st, [smc_model], y, i + 1,
                                        WTTConfig.identity(), rng)
            out[i] = est.x_hat[0]
        return out

    max_dev = float(np.abs(run_smc(10_000, 0) - kf_means).max())

    rmse = {}
    for n in (100, 1000, 10_000):
        vals = [np.sqrt(np.mean((run_smc(n, 10_000 + s) - kf_means) ** 2))
                for s in range(20)]
        rmse[n] = float(np.mean(vals))
    monotone = rmse[100] > rmse[1000] > rmse[10_000]

    ok = max_dev < 0.05 and monotone
    _verdict(capsys, 4, ok,
             "single-model SMC vs exact KF: max |dev| = %.3f at N=1e4 "
             "(gate: < 0.05); mean RMSE %.3f > %.3f > %.3f over "
             "N = 100, 1000, 10000 (gate: strictly decreasing)"
             % (max_dev, rmse[100], rmse[1000], rmse[10_000]))


def test_criterion_05_conjugate_evidence(capsys):
    # importance-sampled evidence of a conjugate pair within 1% of the
    # closed form at n = 1e6 for ten seeds, and exactly 1.0 when the
    # target is the proposal's own density
    truth = float(norm.pdf(0.0, scale=np.sqrt(2.0)))
    prop = Proposal(sample=lambda rng, n: rng.standard_normal((n, 1)),
                    log_density=lambda x: norm.logpdf(x[:, 0]))
    target = UnnormalizedTarget(
        log_density=lambda x: norm.logpdf(x[:, 0]) + norm.logpdf(0.0, loc=x[:, 0]))
    worst = 0.0
    for seed in range(10):
        est, _ = is_evidence(target, prop, 1_000_000,
                             np.random.default_rng(seed))
        worst = max(worst, abs(est - truth) / truth)

    self_target = UnnormalizedTarget(log_density=prop.log_density)
    exact, w = is_evidence(self_target, prop, 1000, np.random.default_rng(0))
    exact_ok = exact == 1.0 and np.array_equal(w, np.ones(1000))

    ok = worst < 0.01 and exact_ok
    _verdict(capsys, 5, ok,
             "conjugate evidence at n=1e6: worst relative error %.4f over "
             "10 seeds (gate: < 0.01); self-normalized case exactly 1.0: %s"
             % (worst, exact_ok))


def test_criterion_06_weight_transition_suite(capsys):
    rng = np.random.default_rng(606)

    def rand_rows(k, steps):
        rows = []
        for _ in range(steps + 1):
            raw = rng.random(k) + 1e-6
            rows.append(raw / raw.sum())
        return rows

    def history_of(rows):
        h = WeightHistory.start(WeightVector(rows[0]))
        for row in rows[1:]:
            h = h.append(WeightVector(row))
        return h

    def rand_history(k, steps):
        return history_of(rand_rows(k, steps))

    simplex_ok = True
    for _ in range(1000):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        k = int(rng.integers(1, 8))
        if kind == "identity":
            cfg = WTTConfig.identity()
        elif kind == "constant":
            raw = rng.random(k) + 1e-6
            cfg = WTTConfig.constant(raw / raw.sum())
        elif kind == "markov":
            raw = rng.random((k, k)) + 1e-6
            cfg = WTTConfig.markov(raw / raw.sum(axis=1, keepdims=True))
        elif kind == "forgetting":
            cfg = WTTConfig.forgetting(float(rng.uniform(0.05, 1.0)))
        else:
            cfg = WTTConfig.polya_urn(rng.integers(1, 5, size=k))
        out = apply_wtt(cfg, rand_history(k, int(rng.integers(0, 4))))
        if not (np.all(out.w >= 0.0) and abs(float(out.w.sum()) - 1.0) <= 1e-12):
            simplex_ok = False

    exact_ok = True
    for _ in range(300):
        k = int(rng.integers(1, 7))
        h = rand_history(k, 2)
        if not np.array_equal(apply_wtt(WTTConfig.forgetting(1.0), h).w, h.last.w):
            exact_ok = False
        if not np.array_equal(apply_wtt(WTTConfig.markov(np.eye(k)), h).w, h.last.w):
            exact_ok = False

    argmax_ok = all(
        int(np.argmax(apply_wtt(WTTConfig.forgetting(
            float(rng.uniform(0.01, 1.0))), h).w)) == int(np.argmax(h.last.w))
        for h in (rand_history(int(rng.integers(2, 7)), 1) for _ in range(300)))

    sym_ok = True
    urn = WTTConfig.polya_urn([2, 2])
    for _ in range(100):
        rows = rand_rows(2, 4)
        h = history_of(rows)
        flipped = history_of([row[::-1] for row in rows])
        if not np.allclose(apply_wtt(urn, h).w,
                           apply_wtt(urn, flipped).w[::-1], atol=1e-15):
            sym_ok = False

    ok = simplex_ok and exact_ok and argmax_ok and sym_ok
    _verdict(capsys, 6, ok,
             "weight transitions: simplex x1000 %s; forgetting(1) and "
             "markov(I) exactly identity %s; forgetting argmax invariant %s; "
             "urn symmetry %s" % (simplex_ok, exact_ok, argmax_ok, sym_ok))


def test_criterion_07_poe_matches_grid(capsys):
    rng = np.random.default_rng(707)
    grid = np.linspace(-30.0, 30.0, 200_001)
    dx = grid[1] - grid[0]
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        means = rng.uniform(-3.0, 3.0, size=k)
        variances = rng.uniform(0.3, 3.0, size=k)
        raw = rng.random(k) + 0.1
        w = raw / raw.sum()
        fused = poe_combine([PredictiveGaussian(m, v)
                             for m, v in zip(means, variances)],
                            WeightVector(w))
        log_density = sum(wk * norm.logpdf(grid, m, np.sqrt(v))
                          for wk, m, v in zip(w, means, variances))
        density = np.exp(log_density - log_density.max())
        density /= density.sum() * dx
        g_mean = float(np.sum(grid * density) * dx)
        g_var = float(np.sum((grid - g_mean) ** 2 * density) * dx)
        worst = max(worst, abs(fused.mean - g_mean), abs(fused.var - g_var))
    _verdict(capsys, 7, worst < 1e-5,
             "product-of-experts vs grid renormalization, 100 cases, "
             "max moment deviation %.2e (gate: < 1e-5)" % worst)


def test_criterion_08_gp_prediction(capsys):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33))
        model = GPTSModel(
            mean_const=float(rng.normal(0.0, 1.0)),
            signal_variance=float(rng.uniform(0.5, 2.0)),
            lengthscale=float(rng.uniform(1.0, 4.0)),
            noise_var=float(rng.uniform(0.05, 0.5)),
            window=64,
        )
        times = np.sort(rng.uniform(0.0, 30.0, size=n)) + np.arange(n) * 1e-6
        values = np.sin(times) + rng.normal(0.0, 0.1, size=n)
        t_next = float(times[-1] + rng.uniform(0.5, 2.0))
        ours = gp_predict_next(model, times, values, t_next)
        k_mat = (model.signal_variance
                 * np.exp(-0.5 * ((times[:, None] - times[None, :])
                                  / model.lengthscale) ** 2)
                 + model.noise_var * np.eye(n))
        k_star = (model.signal_variance
                  * np.exp(-0.5 * ((times - t_next) / model.lengthscale) ** 2))
        solve = np.linalg.solve(k_mat, values - model.mean_const)
        ref_mean = model.mean_const + k_star @ solve
        ref_var = (model.signal_variance + model.noise_var
                   - k_star @ np.linalg.solve(k_mat, k_star))
        worst = max(worst, abs(ours.mean - ref_mean), abs(ours.var - ref_var))

    interp_worst = 0.0
    model = GPTSModel(0.0, 1.0, 2.0, 0.0, 10)
    times = np.array([0.0, 1.0, 2.5, 4.0])
    values = np.array([0.3, -0.7, 1.1, 0.4])
    for t_obs, v in zip(times, values):
        pred = gp_predict_next(model, times, values, float(t_obs))
        interp_worst = max(interp_worst, abs(pred.mean - float(v)))

    ok = worst < 1e-8 and interp_worst < 1e-8
    _verdict(capsys, 8, ok,
             "GP forecast vs direct solve, 100 windows <= 32: max deviation "
             "%.2e (gate: < 1e-8); noise-free interpolation max error %.2e "
             "(gate: < 1e-8)" % (worst, interp_worst))


def test_criterion_09_benchmark_determinism(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["toy", "--seed", "7", "--out", str(out)])
        assert rc == 0
    same = all((a / name).read_bytes() == (b / name).read_bytes()
               for name in ("summary.txt", "runs.csv", "weights.csv"))
    _verdict(capsys, 9, same,
             "two 'toy --seed 7' invocations byte-identical across "
             "summary.txt, runs.csv, weights.csv: %s" % same)


def test_criterion_10_collapse_moment_match(capsys):
    # collapsed mean and covariance against sampled moments of the mixture,
    # twenty random mixtures, a million draws each, three MC standard errors
    rng = np.random.default_rng(1010)
    n = 1_000_000
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        means = rng.normal(0.0, 2.0, (k, d))
        covs = []
        for _ in range(k):
            a = rng.standard_normal((d, d))
            covs.append(a @ a.T + 0.5 * np.eye(d))
        raw = rng.random(k) + 0.1
        w = raw / raw.sum()
        col = collapse_mixture([GaussianBelief(m, c)
                                for m, c in zip(means, covs)],
                               WeightVector(w))

        idx = rng.choice(k, size=n, p=w)
        x = np.empty((n, d))
        for j in range(k):
            sel = idx == j
            x[sel] = rng.multivariate_normal(means[j], covs[j],
                                             size=int(sel.sum()))
        s_mean = x.mean(axis=0)
        se_mean = x.std(axis=0, ddof=1) / np.sqrt(n)
        worst = max(worst, float(np.max(np.abs(col.mean - s_mean) / se_mean)))

        centered = x - s_mean
        s_cov = (centered.T @ centered) / (n - 1)
        prod = np.einsum("ni,nj->nij", centered, centered)
        se_cov = prod.std(axis=0, ddof=1) / np.sqrt(n)
        worst = max(worst, float(np.max(np.abs(col.cov - s_cov) / se_cov)))
    _verdict(capsys, 10, worst <= 3.0,
             "mixture collapse vs sampled moments, 20 mixtures at n=1e6: "
             "worst deviation %.2f MC standard errors (gate: <= 3)" % worst)
