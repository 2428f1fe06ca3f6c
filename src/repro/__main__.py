"""``python -m repro`` entry point."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed our stdout (``repro macrocode | head -1``).
        # Point stdout at devnull so the interpreter's final flush cannot
        # raise again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
