"""Run one relaysim CLI command with span tracing (the traced half of a fresh-process op).

usage: python3 perfbench/traced_cli.py SPILL_DIR OP_INDEX SUBCOMMAND [ARGS...]

Behaves like `python -m relaysim.cli SUBCOMMAND [ARGS...]`, and leaves the
spans of this process and of any pool worker it forks in SPILL_DIR.
"""

import sys

from spans import Tracer


def main() -> int:
    spill_dir, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import relaysim.cli

    tracer = Tracer(spill_dir=spill_dir, op=op)
    tracer.install()
    try:
        return relaysim.cli.main(argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
