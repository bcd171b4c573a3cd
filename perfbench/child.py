"""A fresh interpreter for the benchmark: import the CLI, then run the client.

With no argument it imports ``pdcshape.cli``, prints ``ready`` and exits;
the orchestrator times that as set-up. With a spec file it then runs the
closed-loop client on it.
"""

import sys

import pdcshape.cli  # noqa: F401  (set-up ends with this import)

print("ready", flush=True)

if len(sys.argv) > 1:
    import client

    client.main(sys.argv[1])
