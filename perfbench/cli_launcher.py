"""Traced stand-in for `python -m stochord.cli`, used by the traced cli run.

    python3 perfbench/cli_launcher.py SPANS_JSON ARG...

Installs the tracing wrappers in a fresh interpreter, runs
`stochord.cli.main(ARG...)`, writes the spans and boundary counts to
SPANS_JSON and exits with main's return code.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import stochord.cli

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        return stochord.cli.main(argv)
    finally:
        tracing.uninstall(undo)
        spans_path.write_text(json.dumps({"spans": list(tracer.rows()),
                                          "counts": tracer.counts}))


if __name__ == "__main__":
    sys.exit(main())
