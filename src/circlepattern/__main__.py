"""Process entry of the ``circlepattern`` command, for ``python -m
circlepattern`` and the console script alike.

Each command runs in a process of its own, so the cyclic garbage collector
is switched off before ``cli`` (and with it numpy) is imported, and every
live object is frozen out of the interpreter's final collection before the
exit: at n <= 2562, solve, verify and polyhedron left no cyclic garbage to
collect, and the operating system reclaims the heap at exit. Library
callers, ``cli.main`` included, keep the collector as they set it.
"""
import gc
import sys


def run():
    gc.disable()
    from .cli import main
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
