"""Traced `portinf` command: `python3 cli_child.py SPANS_JSON ARGS...`.

Installs the tracer from spans.py, runs portinf.cli.main(ARGS) as the
console script would, and writes the spans and counters to SPANS_JSON
when the command ends.
"""

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import portinf.cli

    try:
        return portinf.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
