#!/usr/bin/env python3
"""Run bench/run.py alternately in two checkouts and summarise the pairs.

    python scripts/bench_pairs.py BEFORE_DIR AFTER_DIR --workload W --seeds A-B

Each seed in A..B is one pair: one benchmark run in BEFORE_DIR and one in
AFTER_DIR, each in a fresh interpreter started at the checkout's root.  The
side that runs first alternates from seed to seed, so a drift of the machine
falls on both sides.  The script writes ``BENCH_<W>_before.json`` and
``BENCH_<W>_after.json`` into ``--out``.  Each holds a digest of the
checkout's src/ and bench/, every seed's metrics, and for each metric the
median, the quartiles and the number of pairs that side won (its value
strictly better than the other side's in the same pair).  Whether lower or
higher is better comes from the ``BENCHMARK.json`` of AFTER_DIR; metrics it
does not list count as lower is better.  One line per pair goes to stderr as
the runs finish, with both sides' value of every end-to-end metric it
declares.  The exit status is 1 when any run reported ``correct: false`` or a
failed operation; the two files are written either way.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SIDES = ("before", "after")


def seed_range(text: str) -> range:
    lo, sep, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi) if sep else int(lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(first, last + 1)


def bench_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one bench/run.py run in checkout."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def source_digest(checkout: str) -> str:
    """sha256 over the path and bytes of every file the benchmark builds from
    (src/ and bench/), so a record names its code whether or not it is committed."""
    paths = sorted(
        os.path.relpath(os.path.join(root, name), checkout)
        for top in ("src", "bench")
        for root, _, files in os.walk(os.path.join(checkout, top))
        if "__pycache__" not in root.split(os.sep)
        for name in files
    )
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(checkout, path), "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def declared_metrics(checkout: str) -> tuple[list[dict], dict]:
    """The end-to-end metrics of checkout's BENCHMARK.json, and whether lower
    is better for each metric it declares."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = declared.get("end_to_end", [])
    lower = {m["name"]: m["better"] == "lower"
             for m in end_to_end + declared.get("per_layer", [])}
    return end_to_end, lower


def summary(runs: list[dict], others: list[dict], lower: dict) -> dict:
    """Median, quartiles and pairs won per metric of one side."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        sign = 1.0 if lower.get(name, True) else -1.0
        won = sum(sign * (v - o["metrics"][name]) < 0 for v, o in zip(values, others))
        out[name] = {"median": median, "q1": q1, "q3": q3, "pairs_won": won}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", help="checkout of the parent")
    ap.add_argument("after", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="inclusive range A-B")
    ap.add_argument("--seconds", type=float, default=20.0, help="bench/run.py --seconds")
    ap.add_argument("--out", default=".", help="directory for the two BENCH_*.json files")
    args = ap.parse_args()

    dirs = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    end_to_end, lower = declared_metrics(dirs["after"])
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(bench_once(dirs[side], args.workload, seed, args.seconds))
        before, after = (runs[side][-1]["metrics"] for side in SIDES)
        pair = "; ".join(f"{m['name']} {before[m['name']]:.4f} -> {after[m['name']]:.4f} {m['unit']}"
                         for m in end_to_end)
        print(f"seed {seed} ({order[0]} first): {pair}", file=sys.stderr)

    os.makedirs(args.out, exist_ok=True)
    for side, other in zip(SIDES, SIDES[::-1]):
        record = {
            "workload": args.workload,
            "side": side,
            "source_sha256": source_digest(dirs[side]),
            "seconds": args.seconds,
            "pairs": len(runs[side]),
            "first_in_pair": [SIDES[i % 2] for i in range(len(runs[side]))],
            "runs": runs[side],
            "summary": summary(runs[side], runs[other], lower),
        }
        path = os.path.join(args.out, f"BENCH_{args.workload}_{side}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")
        print(path)

    bad = [f"{side} seed {r['seed']}" for side in SIDES for r in runs[side]
           if not r["correct"] or r["failed"] > 0]
    if bad:
        print(f"error: incorrect or failed operations in {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
