"""Run one twdpfit CLI command in this process with its layers traced.

Usage: python3 perfbench/launch.py TRACE_JSON -- CLI_ARGS...

Times ``import twdpfit`` in this fresh interpreter, wraps the layer
functions (spans.Tracer), calls ``twdpfit.cli.main`` and writes the spans
to TRACE_JSON when the command ends, also when it raises.
"""

import sys
import time

from spans import Tracer

if __name__ == "__main__":
    trace_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: launch.py TRACE_JSON -- CLI_ARGS...")
    start = time.perf_counter()
    import twdpfit.cli
    tracer = Tracer()
    tracer.import_s = time.perf_counter() - start
    tracer.install()
    try:
        code = twdpfit.cli.main(cli_args)
    finally:
        tracer.dump(trace_path)
    sys.exit(code)
