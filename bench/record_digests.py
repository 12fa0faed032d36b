"""Record the output digests that runs with the default seed are checked
against, by running one round of every workload at every size.

    PYTHONPATH=src python3 bench/record_digests.py

Run it only on a commit whose outputs are known to be right: a change that
alters a digest is a change in the program's output.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as scratch:
        for size in workloads.SIZES:
            recorded[size] = {}
            for name in workloads.WORKLOADS:
                wl = workloads.build(name, workloads.DEFAULT_SEED, size,
                                     Path(scratch))
                try:
                    recorded[size][name] = [op.check(op.call())["digest"]
                                            for op in wl.ops]
                finally:
                    wl.close()
    workloads.DIGESTS_FILE.write_text(json.dumps(recorded, indent=0) + "\n")


if __name__ == "__main__":
    main()
