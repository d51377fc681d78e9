#!/usr/bin/env python3
"""Run `tailkit demo` on each seed and count the seeds where the reweighted arm wins.

Every argument but --seeds passes to demo unchanged, so the sweep takes all of
demo's flags (see `tailkit demo --help`) and runs through its checks.  Each seed
writes its outputs into a temporary directory and prints demo's own
demo_complete line.  The last line is the release gate's count: the seeds where
the reweighted+oversampled arm beats the plain arm on tail-tercile macro-AP, and
the mean head-tercile change.  A failing demo ends the sweep with its exit code.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from tailkit.cli import main as tailkit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args, demo_args = parser.parse_known_args(argv)
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            out_dir = Path(tmp, str(seed))
            # the sweep's own --seed and --out-dir come last, so they win over passed ones
            code = tailkit(["demo", *demo_args, "--seed", str(seed), "--out-dir", str(out_dir)])
            if code:
                return code
            summaries.append(json.loads((out_dir / "summary.json").read_text(encoding="utf-8")))
    # a tercile with no held-out positive has no mAP: its null gain is never a win
    wins = sum(s["tail_gain"] is not None and s["tail_gain"] > 0 for s in summaries)
    heads = [s["head_change"] for s in summaries if s["head_change"] is not None]
    mean_head = f"{sum(heads) / len(heads):+.4f}" if heads else "n/a"
    print(f"\nwins {wins}/{len(summaries)}, mean head change {mean_head}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
