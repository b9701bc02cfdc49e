"""Run ``repro serve`` with the layer wrappers installed in the server
process, and write its spans when the daemon shuts down.

Usage: ``python3 layerbench/serve_traced.py --spans FILE serve ARGS...``
(the arguments after ``--spans FILE`` go to ``repro`` unchanged).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    from layers import Tracer
    from repro.__main__ import main as repro_main

    tracer = Tracer().install()
    try:
        return repro_main(argv[2:])
    finally:
        tracer.remove()
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
