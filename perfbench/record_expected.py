"""Record the expected stdout of every call any workload seed can generate.

Writes expected.json: the SHA-256 of each call's stdout bytes, keyed by its
argv.  The digests in the repository were recorded from the seed commit of
the benchmark; run this again only when a change is meant to alter the CLI's
output, and say so in the change.

    python3 perfbench/record_expected.py
"""
from __future__ import annotations

import json
import sys

import run


def main():
    expected = {}
    launcher = run.Launcher()
    try:
        for workload in run.WORKLOADS:
            for argv in run.all_argvs(workload):
                wall, _, _, code, stdout, *_ = launcher.spawn(run.CLI_CODE, argv,
                                                              run.CALL_TIMEOUT_S)
                if code != 0:
                    sys.exit(f"exit {code}: {run.key(argv)}")
                expected[run.key(argv)] = run.digest(stdout)
                print(f"{wall:7.3f} s  {run.key(argv)}", file=sys.stderr)
    finally:
        launcher.close()
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
