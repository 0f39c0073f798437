"""Fresh-interpreter timing probe, run as a child process by run.py.

    python benchmarks/probe.py setup <doc.json>   # import qhdyn + scenario_from_dict
    python benchmarks/probe.py import             # import qhdyn.cli

Prints one JSON object with the measured seconds.  The document is read
before the clock starts, so only the package's own cost is timed.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    mode = argv[0]
    doc = None
    if mode == "setup":
        with open(argv[1], encoding="utf-8") as handle:
            doc = json.load(handle)
    elif mode != "import":
        print(f"unknown probe mode {mode!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    if doc is None:
        import qhdyn.cli  # noqa: F401
    else:
        import qhdyn  # noqa: F401
        from qhdyn.scenario import scenario_from_dict

        scenario_from_dict(doc)
    print(json.dumps({"seconds": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
