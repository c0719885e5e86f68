"""Run one lpcert CLI command with the tracer installed.

    python perfbench/traced_cli.py SPANS_JSON -- <lpcert arguments>

Behaves like ``python -m lpcert.cli <arguments>`` (same stdout, same
exit code) and writes the spans of the call to SPANS_JSON, together with
the time ``import lpcert.cli`` took in this process.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- ARGS...")
    t0 = time.perf_counter()
    import lpcert.cli  # noqa: F401  (timed: this is the CLI's start-up)
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = sys.modules["lpcert.cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s=import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main())
