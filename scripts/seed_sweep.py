#!/usr/bin/env python3
"""Sweep the two-arm experiment over seeds and tabulate tail/head macro-AP.

Prints one row per seed plus the win count, matching the release gate:
the reweighted+oversampled arm should beat the plain arm on tail-tercile
macro-AP on nearly every seed while leaving head classes intact.
"""

import argparse
import time

import numpy as np

from tailkit.trainer import SynthSpec, run_comparison


def _fmt(value, width: int, sign: str = "") -> str:
    """`value` to 4 decimals, right-aligned to `width`; "n/a" when it is None."""
    return f"{'n/a':>{width}}" if value is None else f"{value:>{sign}{width}.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--n-samples", type=int, default=4000)
    parser.add_argument("--n-classes", type=int, default=20)
    parser.add_argument("--feature-dim", type=int, default=32)
    parser.add_argument("--exponent", type=float, default=1.5)
    parser.add_argument("--noise-std", type=float, default=0.5)
    parser.add_argument("--lr", type=float, default=0.5)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=64)
    args = parser.parse_args()

    start = time.monotonic()
    wins = 0
    head_changes = []
    print(f"{'seed':>5} {'tail db+cas':>12} {'tail bce':>10} {'gain':>8} {'head change':>12}")
    for seed in args.seeds:
        spec = SynthSpec(
            n_samples=args.n_samples,
            n_classes=args.n_classes,
            feature_dim=args.feature_dim,
            power_law_exponent=args.exponent,
            noise_std=args.noise_std,
            seed=seed,
        )
        summary, _, _ = run_comparison(
            spec, learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size
        )
        arms = summary["arms"]
        # a tercile with no held-out positive has no mAP: shown as n/a, never a win
        tail_gain, head_change = summary["tail_gain"], summary["head_change"]
        wins += tail_gain is not None and tail_gain > 0
        if head_change is not None:
            head_changes.append(head_change)
        print(
            f"{seed:>5} {_fmt(arms['db_cas']['tail_map'], 12)} "
            f"{_fmt(arms['bce_uniform']['tail_map'], 10)} {_fmt(tail_gain, 8, '+')} "
            f"{_fmt(head_change, 12, '+')}"
        )
    elapsed = time.monotonic() - start
    mean_head = _fmt(np.mean(head_changes) if head_changes else None, 0, "+")
    print(f"\nwins {wins}/{len(args.seeds)}, mean head change {mean_head}, elapsed {elapsed:.1f}s")


if __name__ == "__main__":
    main()
