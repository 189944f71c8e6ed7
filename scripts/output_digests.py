#!/usr/bin/env python3
"""List a digest of every output the CLI gives on the shipped configs, so
that two checkouts can be compared by diffing their listings.

With ROOT/src on the import path, it runs gamma-sp, gamma-fs, validate,
count-snapshots and simulate (--threads 1 and 2) on each JSON file under
ROOT/configs/ and ROOT/perfbench/inputs/. Each run gets its own directory
under OUT, holding a copy of the config, and runs from inside it with a
relative --out, so that no output line names ROOT or OUT. Per run it prints
the exit code and the SHA-256 of stdout and of stderr, then one
``sha256  path`` line per file written, the path relative to OUT. It writes
nothing under ROOT. Standard library only.

Usage: python scripts/output_digests.py ROOT OUT   (OUT new or empty)
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

CONFIG_DIRS = ("configs", "perfbench/inputs")
# Run label -> the CLI arguments after the subcommand's --config.
RUNS = {
    "gamma-sp": ["gamma-sp", "--out", "out"],
    "gamma-fs": ["gamma-fs", "--out", "out"],
    "validate": ["validate", "--out", "out"],
    "count-snapshots": ["count-snapshots"],
    "simulate-threads1": ["simulate", "--out", "out", "--threads", "1"],
    "simulate-threads2": ["simulate", "--out", "out", "--threads", "2"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    root, out = (Path(a).resolve() for a in argv)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"output_digests: {out} is not empty", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for config_dir in CONFIG_DIRS:
        for config in sorted((root / config_dir).glob("*.json")):
            for label, (command, *flags) in RUNS.items():
                rel = Path(config_dir, config.stem, label)
                run_dir = out / rel
                run_dir.mkdir(parents=True)
                shutil.copyfile(config, run_dir / "config.json")
                cli = ["-m", "adn_consensus.cli", command, "--config", "config.json", *flags]
                proc = subprocess.run(
                    [sys.executable, *cli], cwd=run_dir, env=env, capture_output=True
                )
                print(
                    f"{rel.as_posix()}: exit {proc.returncode}, "
                    f"stdout {sha256(proc.stdout)}, stderr {sha256(proc.stderr)}",
                    flush=True,
                )
                for path in sorted((run_dir / "out").rglob("*")):
                    if path.is_file():
                        print(f"{sha256(path.read_bytes())}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
