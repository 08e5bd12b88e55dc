"""The process entry of ``bifrac``: ``python -m bifrac`` and the console
script both call :func:`run`.

:func:`run` returns ``cli.main()``'s exit code and, as the process ends,
moves every object still tracked by the garbage collector into its
permanent generation (``gc.freeze``).  The interpreter's final collections
then skip the imported modules' objects (numpy's and bifrac's, about 21,000
of them) and the OS takes their memory back with the process.  Nothing else
about exit changes: atexit handlers run, non-daemon threads are joined and
stdout and stderr are flushed, and every file bifrac writes is closed
before ``main`` returns.  ``cli.main(argv)`` and the library never touch
the collector, so a host program that calls them keeps its own; ``import
bifrac`` pauses it only while it loads numpy (see the package docstring),
and restores whether it runs.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """``cli.main()`` on ``sys.argv``, then ``gc.freeze()`` on the way out,
    whether main returns, exits or raises."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
