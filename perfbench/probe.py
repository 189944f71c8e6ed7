"""One set-up launch, timed by run.py from outside: a fresh interpreter
imports the package, parses and resolves the workload's config, and makes
one warm-up call.

    python3 perfbench/probe.py WORKLOAD WORK_DIR

The warm-up is the smallest call of the workload's kind: a one-path
``simulate``, or for certify ``gamma-sp`` and ``gamma-fs`` on the n=8 input.
Exit code 0 only if every step succeeded.
"""

import checkout  # first: pins the environment before numpy loads

import json
import os
import sys

from workloads import BY_NAME, INPUTS, call_cli, load_input


def main(workload: str, work_dir: str) -> int:
    cli = checkout.import_package().cli
    wl = BY_NAME[workload]
    cfg = load_input(wl.inputs[0])
    cli.resolve_config(cli.parse_config(cfg))
    if wl.kind == "simulate":
        path = os.path.join(work_dir, "probe-" + wl.inputs[0])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(cfg, n_paths=1), fh)
        calls = [["simulate", "--config", path, "--out", os.path.join(work_dir, "probe"),
                  "--threads", "1"]]
    else:
        path = os.path.join(INPUTS, wl.inputs[1])
        out = os.path.join(work_dir, "probe")
        calls = [[cmd, "--config", path, "--out", out] for cmd in ("gamma-sp", "gamma-fs")]
    for argv in calls:
        code, _ = call_cli(cli, argv)
        if code != 0:
            print(f"probe: {argv[0]} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
