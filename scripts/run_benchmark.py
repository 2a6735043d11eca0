#!/usr/bin/env python3
"""Run the stable-growth benchmark end to end and write all outputs.

This is `quasicrack run <config>` with the built-in tapered-strip
configuration (`cases.growth_benchmark_config`). It stays a script for two
things the command does not do:
- it writes that configuration as `config.json` next to the outputs, so
  `quasicrack audit <dir>/state.json` and `quasicrack sweep
  <dir>/config.json` run on them (CI runs both);
- it prints the growth summary: the onset time, and each tip's final
  sigma and kappa, after the run's own summary and audit verdict.
"""

import argparse
import json
from pathlib import Path

from quasicrack.cases import growth_benchmark_config
from quasicrack.cli import main as quasicrack


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=1 / 64)
    ap.add_argument("--refine", type=int, default=1)
    ap.add_argument("--output-dir", default="benchmark_out")
    args = ap.parse_args()

    cfg = growth_benchmark_config(delta=args.delta, refine=args.refine)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True))

    rc = quasicrack(["run", str(cfg_path), "--output-dir", str(out)])
    if rc == 0:
        jsonl = (out / "evolution.jsonl").read_text().strip().splitlines()
        grown = [json.loads(l) for l in jsonl if json.loads(l)["grew"]]
        if grown:
            print(f"growth onset at t = {grown[0]['t']:.4f}")
            last = grown[-1]
            for tip in last["tips"]:
                kap = "n/a" if tip["kappa"] is None else f"{tip['kappa']:.4f}"
                print(f"tip {tip['tip']}: sigma = {tip['sigma']:.4f}, kappa = {kap}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
