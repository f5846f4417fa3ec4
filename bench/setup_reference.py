"""Cold set-up of a fixed reference program: a fresh interpreter importing numpy.

Prints the seconds from its first statement to the end of the import.
``run.py`` runs it in fresh processes right after its own set-up and
scales ``setup_s`` by it (see README.md).
"""

import time

START = time.perf_counter()

import numpy  # noqa: E402,F401

print(time.perf_counter() - START)
