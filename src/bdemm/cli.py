"""Command line front end.

Three subcommands:

``bdemm toy``
    Run the robust-filtering benchmark and write summary.txt, runs.csv and
    weights.csv into --out.
``bdemm stream``
    Filter a CSV of observations through an engine described by a config
    file; write a per-step CSV.
``bdemm selftest``
    Run a quick battery of built-in invariant checks.

Exit codes: 0 on success, 1 on usage or config errors, 2 on numeric
failures (an engine error mid-stream, or a failed selftest check).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import BdemmError, ConfigError, ParseError
from .toy import ToyConfig, run_toy_experiment, summary_text, write_report
from .wtt import KINDS


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bdemm",
                     description="dynamic Bayesian model ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="run the robust-filtering benchmark")
    toy.add_argument("--runs", type=int, default=30,
                     help="independent Monte Carlo runs (default 30)")
    toy.add_argument("--particles", type=int, default=200,
                     help="particles per filter (default 200)")
    toy.add_argument("--seed", type=int, default=0,
                     help="master seed (default 0)")
    toy.add_argument("--alpha", type=float, default=0.5,
                     help="forgetting exponent (default 0.5)")
    toy.add_argument("--wtt", default="forgetting",
                     choices=KINDS,
                     help="weight-transition operator (default forgetting)")
    toy.add_argument("--out", required=True, metavar="DIR",
                     help="directory for summary.txt, runs.csv, weights.csv")

    stream = sub.add_parser("stream", help="filter a CSV of observations")
    stream.add_argument("--config", required=True, metavar="FILE",
                        help="flat key-value engine config")
    stream.add_argument("--input", required=True, metavar="CSV",
                        help="headerless CSV, one observation per row")
    stream.add_argument("--out", required=True, metavar="CSV",
                        help="per-step output CSV")

    sub.add_parser("selftest", help="run built-in invariant checks")
    return parser


def _cmd_toy(args) -> int:
    try:
        config = ToyConfig(runs=args.runs, particles=args.particles,
                           seed=args.seed, forgetting_alpha=args.alpha,
                           wtt_kind=args.wtt)
    except (ValueError, BdemmError) as exc:
        print("bdemm toy: %s" % exc, file=sys.stderr)
        return 1
    try:
        report = run_toy_experiment(config)
        paths = write_report(report, args.out)
    except BdemmError as exc:
        print("bdemm toy: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(summary_text(report))
    print("wrote: " + ", ".join(paths))
    return 0


def _cmd_stream(args) -> int:
    from .stream import run_stream

    try:
        rows = run_stream(args.config, args.input, args.out)
    except (ConfigError, ParseError) as exc:
        print("bdemm stream: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("bdemm stream: %s" % exc, file=sys.stderr)
        return 1
    except BdemmError as exc:
        print("bdemm stream: numeric failure: %s" % exc, file=sys.stderr)
        return 2
    print("wrote %d row(s) to %s" % (rows, args.out))
    return 0


def _selftest_checks():
    """Yield (name, callable) pairs; each callable asserts an invariant."""
    from numpy.testing import assert_allclose

    from .core import (GaussianBelief, WeightHistory, WeightVector,
                       collapse_mixture, normalize_weights,
                       update_model_weights)
    from .evidence import Proposal, UnnormalizedTarget, is_evidence
    from .gpts import GPTSModel, PredictiveGaussian, gp_predict_next, poe_combine
    from .kalman import GaussianBelief as _GB  # noqa: F401  (import sanity)
    from .kalman import LinearGaussianModel, kf_update
    from .wtt import WTTConfig, apply_wtt

    def simplex_preserved():
        rng = np.random.default_rng(7)
        ops = [WTTConfig.identity(), WTTConfig.forgetting(0.5),
               WTTConfig.markov(np.array([[0.9, 0.1], [0.1, 0.9]])),
               WTTConfig.constant([0.3, 0.7]),
               WTTConfig.polya_urn([1, 2])]
        for _ in range(200):
            w = normalize_weights(rng.random(2) + 1e-12)
            hist = WeightHistory.start(w)
            for op in ops:
                out = apply_wtt(op, hist)
                assert abs(float(out.w.sum()) - 1.0) <= 1e-12
                assert np.all(out.w >= 0.0)

    def forgetting_limit():
        w = WeightVector(np.array([0.81, 0.19]))
        hist = WeightHistory.start(w)
        out = apply_wtt(WTTConfig.forgetting(1.0), hist)
        assert np.array_equal(out.w, w.w)

    def bayes_update():
        post = update_model_weights(WeightVector([0.5, 0.5]), [0.2, 0.6])
        assert_allclose(post.w, [0.25, 0.75], atol=1e-14)

    def collapse_two_gaussians():
        comps = [GaussianBelief([0.0], [[1.0]]), GaussianBelief([2.0], [[1.0]])]
        out = collapse_mixture(comps, WeightVector([0.5, 0.5]))
        assert_allclose(out.mean, [1.0], atol=1e-14)
        assert_allclose(out.cov, [[2.0]], atol=1e-14)

    def kalman_hand_case():
        model = LinearGaussianModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        posterior, evidence = kf_update(model, GaussianBelief([0.0], [[2.0]]),
                                        [2.0])
        assert_allclose(posterior.mean, [4.0 / 3.0], atol=1e-12)
        assert_allclose(posterior.cov, [[2.0 / 3.0]], atol=1e-12)
        assert_allclose(evidence, 0.11826, atol=1e-5)

    def conjugate_evidence():
        rng = np.random.default_rng(11)
        target = UnnormalizedTarget(
            lambda x: -0.5 * np.log(2 * np.pi) - 0.5 * x[:, 0] ** 2
            - 0.5 * np.log(2 * np.pi) - 0.5 * x[:, 0] ** 2)
        proposal = Proposal(
            sample=lambda r, n: r.standard_normal((n, 1)),
            log_density=lambda x: -0.5 * np.log(2 * np.pi) - 0.5 * x[:, 0] ** 2)
        est, _ = is_evidence(target, proposal, 200_000, rng)
        assert abs(est - 1.0 / np.sqrt(4.0 * np.pi)) < 0.005

    def gp_interpolates():
        model = GPTSModel(0.0, 1.0, 1.0, 0.0, 8)
        times = np.arange(1.0, 9.0)
        values = np.sin(times)
        for t, v in zip(times, values):
            pred = gp_predict_next(model, times, values, float(t))
            assert abs(pred.mean - v) < 1e-8

    def poe_closed_form():
        preds = [PredictiveGaussian(0.0, 1.0), PredictiveGaussian(2.0, 1.0)]
        out = poe_combine(preds, WeightVector([0.5, 0.5]))
        assert_allclose([out.mean, out.var], [1.0, 1.0], atol=1e-14)

    return [
        ("weight transitions stay on the simplex", simplex_preserved),
        ("forgetting at alpha=1 is the identity", forgetting_limit),
        ("Bayes weight update", bayes_update),
        ("mixture collapse moment match", collapse_two_gaussians),
        ("Kalman update hand case", kalman_hand_case),
        ("importance-sampled conjugate evidence", conjugate_evidence),
        ("GP noise-free interpolation", gp_interpolates),
        ("product-of-experts closed form", poe_closed_form),
    ]


def _cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:
            failures += 1
            print("FAIL %s (%s)" % (name, exc))
        else:
            print("ok   %s" % name)
    if failures:
        print("%d check(s) failed" % failures)
        return 2
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "toy":
        return _cmd_toy(args)
    if args.command == "stream":
        return _cmd_stream(args)
    return _cmd_selftest()


if __name__ == "__main__":
    sys.exit(main())
