"""Run one latentprior CLI command with the layer wrappers installed.

    python3 perfbench/tracechild.py SPANS_OUT <latentprior arguments...>

The cli workload's traced passes start each command through this file
instead of ``python -m latentprior.cli``. It writes the command's spans to
SPANS_OUT, one JSON list per line, and exits with the command's exit code.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from latentprior import cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
