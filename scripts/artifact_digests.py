#!/usr/bin/env python3
"""Run every example config and print the sha256 of each artifact it writes.

One ``<sha256>  <stem>/<artifact>`` line per artifact goes to stdout, sorted
by name, and one ``<sha256>  <stem>/manifest.json`` line per run, where
<stem> is the config file's name without ``.cfg``: the manifest line digests
the manifest with its wall-clock fields ``created_utc`` and
``elapsed_seconds`` dropped.  Each run's wall time goes to stderr.  Checking
that a change keeps every artifact byte-identical, and every manifest but for
its wall-clock fields, is then one diff:

    PYTHONPATH=src python scripts/artifact_digests.py > after.txt
    diff before.txt after.txt
"""

import argparse
import glob
import hashlib
import json
import os
import sys
import tempfile
import time

from chcsim import runner
from chcsim.config import parse_config

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
WALL_CLOCK = ("created_utc", "elapsed_seconds")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(config_dir: str) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as out:
        for path in sorted(glob.glob(os.path.join(config_dir, "*.cfg"))):
            cfg = parse_config(path)
            stem = os.path.splitext(os.path.basename(path))[0]
            t0 = time.perf_counter()
            manifest = runner.run(cfg, override_out=out)
            print(f"{os.path.basename(path)}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
            for name in manifest.outputs:
                with open(os.path.join(manifest.directory, name), "rb") as fh:
                    lines.append(f"{_sha256(fh.read())}  {stem}/{name}")
            with open(manifest.path, encoding="utf-8") as fh:
                payload = {k: v for k, v in json.load(fh).items() if k not in WALL_CLOCK}
            text = json.dumps(payload, indent=2, sort_keys=True)
            lines.append(f"{_sha256(text.encode('utf-8'))}  {stem}/manifest.json")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", default=CONFIGS, help="directory of *.cfg files")
    args = ap.parse_args()
    print("\n".join(digests(args.configs)))


if __name__ == "__main__":
    main()
