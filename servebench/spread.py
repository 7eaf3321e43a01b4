"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 servebench/spread.py --workload chat_open --seeds 1-5 --seconds 10

Runs the benchmark once per seed, one run at a time, and prints each
metric's median and quartile spread as a share of the median next to the
bound from ``BENCHMARK.json``.  A benchmark is steady when every spread is
well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from servebench.stats import iqr_over_median  # noqa: E402


def _seeds(spec: str) -> list[int]:
    """``"1-10"`` or ``"3,3,3"`` (repeating a seed isolates host noise)."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "servebench" / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", args.seconds,
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if "host correction c=" in line:
                c = float(line.split("host correction c=")[1].split()[0])
                values.setdefault("host.correction", []).append(c)
            parts = line.split()
            if len(parts) >= 4 and parts[3] == "(raw":
                values.setdefault(parts[0] + ".raw", []).append(
                    float(parts[4].rstrip(","))
                )
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: c={values['host.correction'][-1]:.4f}, " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = iqr_over_median(vals) if med and len(vals) > 1 else 0.0
        bound = bounds.get(name, float("nan"))
        flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
        print(f"{name:18s} median {med:12.4f}  spread {spread:7.4f}  bound {bound:5.3f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
