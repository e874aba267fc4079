"""One leibniz-lab command with spans or Scalar-op counting installed.

    python3 perfbench/cli_child.py {spans|count} TABLE.json COMMAND...

Behaves like the ``leibniz-lab`` console script (same stdout and exit
code) and writes the recorded span table to TABLE.json.  The library is
found through PYTHONPATH, as for the plain command.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main():
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = spans.Tracer()
    if mode == "spans":
        tracer.install_spans()
    else:
        tracer.install_counting()
    from leibniz_lab import cli
    tracer.on = True
    try:
        status = cli.main(argv)
    finally:
        tracer.on = False
        spans.write_table(tracer.table(), path)
    return status


if __name__ == "__main__":
    sys.exit(main())
