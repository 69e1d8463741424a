"""Record the stdout digests of the seed-independent ops into reference.json.

    python3 perfbench/record_reference.py

The codim and limits ops take no seed, so their stdout must stay
byte-identical from commit to commit; the benchmark fails an op whose digest
differs. Re-record only when a change to the output is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys

from worker import REFERENCE, run_op
import workloads

import jetinv.cli as cli


def main() -> int:
    digests = {}
    for name in ("codim", "limits"):
        for argv in workloads.argvs(name, 0):
            if "--seed" in argv:
                raise SystemExit(f"{name} has a seeded op: {argv}")
            _ms, rc, text, err = run_op(cli, argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited {rc}: {err}")
            digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
