import gc
import sys

from .cli import main


def run() -> None:
    """Entry of `python -m canstrip` and the `canstrip` script: run `main`, then
    freeze the heap so that the full collections at interpreter exit have
    nothing to walk.  Atexit handlers, flushes and the exit code still run as
    before.  `main` itself never freezes, so in-process callers keep collecting."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
