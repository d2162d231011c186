#!/usr/bin/env python3
"""Rewrite perfbench/pinned.json: the answers run.py checks the program
against, taken from the program at the checked-out commit.

    python3 perfbench/pin.py      # from the root of a checkout

It records the sha256 of every generated doc of the fixed set, of the
stdout of `cfdprop cover` on each, and of the `cover` reply of a fresh
`cfdprop serve` session on the serve workloads' doc.  Re-pin
only when a change is meant to alter covers or generated inputs.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    run.build()
    os.makedirs(run.WORK, exist_ok=True)
    docs = run.cover_docs()
    pinned = {"docs": {}, "cover_stdout": {}, "cover_pull": {}}
    out_path = os.path.join(run.WORK, "pin.out")
    for name, path in sorted(docs.items()):
        with open(path, "rb") as f:
            pinned["docs"][name] = run.sha(f.read())
        _, _, _, status = run.run_process(path, out_path)
        if status != 0:
            sys.exit(f"cfdprop cover {name} exited with {status}")
        with open(out_path, "rb") as f:
            pinned["cover_stdout"][name] = run.sha(f.read())
    _, daemon = run.cold_starts(docs[run.SERVE_DOC])
    try:
        reply = run.request(daemon.port, b'{"op": "cover", "session": "b"}')
    finally:
        daemon.stop()
    pinned["cover_pull"][run.SERVE_DOC] = run.sha(reply)
    with open(run.PINNED, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
