#!/usr/bin/env python3
"""Record the reference output digests that bench/run.py checks against.

    python3 bench/record_golden.py [--seeds 64]

Writes bench/golden.json: the sha256 of `cellres verify`'s stdout for
every ladder_verify item, and the cli_mix pass digest (default size) for
seeds 0..seeds-1.  Run it only on a commit whose output is the reference;
a commit that changes any CLI byte then fails these checks.
"""

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=64)
    args = p.parse_args()
    api = run.fresh_api()
    ladder = {}
    for name, text in workloads.LADDER:
        _, rc, out = workloads.run_cli(api, ["verify", text])
        if rc != 0:
            sys.exit("ladder item %s exited with %d" % (name, rc))
        ladder[name] = hashlib.sha256(out.encode()).hexdigest()
    mix = workloads.WORKLOADS["cli_mix"]
    cli = {}
    for seed in range(args.seeds):
        items = mix.setup(api, seed, mix.items)
        results = [check() for _, check in (mix.run(api, it) for it in items)]
        if not all(ok for ok, _ in results):
            sys.exit("cli_mix seed %d has failing items" % seed)
        cli[str(seed)] = workloads.pass_digest([d for _, d in results])
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump({"cli_mix": cli, "ladder_verify": ladder}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
