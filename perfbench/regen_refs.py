"""Regenerate the benchmark's references from the zncert sources in this checkout.

    python3 perfbench/regen_refs.py [certify recover scan desk]

Run it only at a commit whose outputs are trusted: every later run is
checked against what it writes to perfbench/zbench/refs/<workload>.json.
It evaluates every corpus input of every slot once, so it takes minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from zbench import core
from zbench.workloads import WORKLOADS


def regenerate(name: str) -> Path:
    workload = WORKLOADS[name]
    z = core.fresh_import()
    tr = core.NullTracer()
    items = {}
    for slot, indices in workload.CORPUS.items():
        for idx in indices:
            item = workload.make_item(z, tr, slot, idx)
            items[item["key"]] = workload.record(z, item, workload.execute(z, tr, item))
    path = core.REFS_DIR / f"{name}.json"
    meta = {"git_rev": core.git_rev(), "src_sha256": core.src_digest()}
    path.write_text(json.dumps({"meta": meta, "items": items}, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    for name in args.workloads or WORKLOADS:
        start = time.perf_counter()
        path = regenerate(name)
        print(f"{name}: wrote {path} in {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
