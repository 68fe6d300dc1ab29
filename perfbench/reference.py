"""Plain numpy recursions that the stream outputs are checked against.

Each one restates the transition-then-Bayes loop for its workload's pool
without any of the library's types: forgetting operator, log-domain Bayes
update, then the engine's own fusion (mixture collapse for the Kalman pool,
product of experts for the GP pool).  They assume no step falls back to the
predictive weights, which the workload inputs never trigger.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _forget(w, alpha):
    p = w ** alpha
    return p / p.sum()


def _bayes(prior, log_ev):
    lw = np.log(prior) + log_ev
    w = np.exp(lw - lw.max())
    return w / w.sum()


def kf_reference(y, q, r, mean, var, alpha):
    """Scalar random-walk Kalman pool (A = B = 1) over measurement variances
    ``r``.  Returns estimates (T,) and posterior weights (T, K)."""
    r = np.asarray(r, dtype=float)
    k = r.size
    w = np.full(k, 1.0 / k)
    m, p = float(mean), float(var)
    est = np.empty(len(y))
    weights = np.empty((len(y), k))
    for i, obs in enumerate(y):
        p_pred = p + q
        s = p_pred + r
        gain = p_pred / s
        resid = obs - m
        means = m + gain * resid
        variances = p_pred - gain * p_pred
        log_ev = -0.5 * (LOG_2PI + np.log(s) + resid * resid / s)
        w = _bayes(_forget(w, alpha), log_ev)
        m = float(w @ means)
        p = float(w @ (variances + means * means)) - m * m
        est[i] = m
        weights[i] = w
    return est, weights


def gp_reference(y, mean, signal_var, lengthscale, noise_vars, window, alpha):
    """GP pool over noise variances ``noise_vars`` on a sliding window, with
    every forecast from a direct solve.  Observation i arrives at time i+1.
    Returns fused forecasts for the next time (T,) and posterior weights
    (T, K)."""
    noise = np.asarray(noise_vars, dtype=float)
    k = noise.size
    w = np.full(k, 1.0 / k)
    fc_mean = np.full(k, float(mean))
    fc_var = signal_var + noise
    times, values = [], []
    fused = np.empty(len(y))
    weights = np.empty((len(y), k))
    for i, obs in enumerate(y):
        resid = obs - fc_mean
        log_ev = -0.5 * (LOG_2PI + np.log(fc_var) + resid * resid / fc_var)
        w = _bayes(_forget(w, alpha), log_ev)
        times = (times + [i + 1.0])[-window:]
        values = (values + [float(obs)])[-window:]
        tt = np.asarray(times)
        gram = signal_var * np.exp(
            -0.5 * ((tt[:, None] - tt[None, :]) / lengthscale) ** 2)
        k_star = signal_var * np.exp(-0.5 * ((tt - (i + 2.0)) / lengthscale) ** 2)
        rhs = np.column_stack([np.asarray(values) - mean, k_star])
        for j in range(k):
            sol = np.linalg.solve(gram + noise[j] * np.eye(tt.size), rhs)
            fc_mean[j] = mean + k_star @ sol[:, 0]
            fc_var[j] = signal_var + noise[j] - k_star @ sol[:, 1]
        fusion = _forget(w, alpha)
        precision = float(np.sum(fusion / fc_var))
        fused[i] = float(np.sum(fusion * fc_mean / fc_var)) / precision
        weights[i] = w
    return fused, weights
