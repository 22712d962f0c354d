"""Memory a member node holds after a cold start, per record.

    python3 tools/replay_memory.py [--seed 1]

Builds perfbench's seeded checkin history (10,240 credentials in 40 blocks),
writes its block log to a temporary directory, empties the signature memo,
and builds the member node from it with `build_node`, as `dhp bm run` does,
under tracemalloc. Prints one JSON line: the records replayed, the bytes per
record still allocated once the node is built (after), and the highest
allocation per record while it was being built (peak). Allocations made
before the build, such as the history itself, are not counted. Exits 1 if
either figure is above LIMIT_BYTES_PER_RECORD.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from common import load_dhp, memo_clear  # noqa: E402

#: A member holds each block's frame (132 B per record in this history) and
#: one index entry per record; this bounds both, after the replay and at peak.
LIMIT_BYTES_PER_RECORD = 300


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    load_dhp()
    import inputs
    from dhp.service import build_node, parse_node_config

    with tempfile.TemporaryDirectory() as tmp:
        config_path = inputs.write_history(inputs.build_history(args.seed), Path(tmp))
        config = parse_node_config(config_path.read_text(), base_dir=config_path.parent)
        gc.collect()
        memo_clear()
        tracemalloc.start()
        try:
            node = build_node(config)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        records = len(node.state.index)
        node.stop()
    report = {
        "seed": args.seed,
        "records": records,
        "after_bytes_per_record": round(after / records),
        "peak_bytes_per_record": round(peak / records),
        "limit_bytes_per_record": LIMIT_BYTES_PER_RECORD,
    }
    print(json.dumps(report))
    return 0 if peak / records <= LIMIT_BYTES_PER_RECORD else 1  # peak >= after


if __name__ == "__main__":
    sys.exit(main())
