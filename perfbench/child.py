"""Child-process entry points of the benchmark (conemv on PYTHONPATH).

    python3 perfbench/child.py setup CONFIG SAMPLES
        Fresh-interpreter set-up: import conemv.cli, parse CONFIG, build
        its backend (SAMPLES > 0 overrides the SAA sample count), exit.
        Prints {"import_s", "parse_s", "backend_s"} as JSON.

    python3 perfbench/child.py cli SPANS_OUT ARGS...
        Run conemv.cli.main(ARGS) with every entry point wrapped in a
        span, write the spans to SPANS_OUT for the parent to merge, and
        exit with main's code.  The command's own output goes to stdout
        untouched.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(config: str, samples: int) -> int:
    start = time.perf_counter()
    import conemv.cli  # noqa: F401  (the import is what is timed)
    from conemv.config import parse_config
    imported = time.perf_counter()
    with open(config) as fh:
        cfg = parse_config(json.load(fh))
    if samples > 0:
        cfg.samples = samples
    parsed = time.perf_counter()
    cfg.make_backend()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                      "backend_s": built - parsed}))
    return 0


def cli(spans_out: str, argv: list[str]) -> int:
    from spans import Instrumentation, Tracer

    import conemv.cli
    tracer = Tracer()
    try:
        with Instrumentation(tracer):
            code = conemv.cli.main(argv)
    finally:
        Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup(argv[1], int(argv[2]))
    if len(argv) >= 2 and argv[0] == "cli":
        return cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
