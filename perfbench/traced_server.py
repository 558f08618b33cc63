"""``usfq-serve`` with the layer tracer installed, for traced serve runs.

Takes the ``usfq-serve`` arguments.  After the server has drained on
SIGTERM, prints the tracer's per-request records as one JSON line on
stdout (after the usual listening line).
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install


def main() -> int:
    tracer = Tracer()
    install(tracer, serve=True)
    from repro.serve.cli import main as serve_main

    code = serve_main(sys.argv[1:])
    print(json.dumps({"ops": tracer.ops}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
