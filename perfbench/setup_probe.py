"""Fresh-interpreter set-up probe: times `import ringspace` plus ring parsing.

Run as ``python3 perfbench/setup_probe.py SPEC...`` with ``src`` on
PYTHONPATH.  Only ``sys``, ``time`` and the reference loop are loaded before
the timed region, so the import cost of the whole package is measured.
Prints one JSON object: the set-up seconds and the two reference samples
taken around it.
"""

import sys
import time

from refloop import ref_loop


def _ref() -> float:
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0


def main(specs: list[str]) -> int:
    r0 = _ref()
    t0 = time.perf_counter()
    import ringspace

    for spec in specs:
        ringspace.parse_ring(spec)
    t1 = time.perf_counter()
    r1 = _ref()
    import json
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(ringspace.__file__).resolve().parent.parent != src:
        print(f"ringspace imported from {ringspace.__file__}, not {src}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": t1 - t0, "refs": [r0, r1]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
