"""The repo's one end-to-end benchmark (see README.md in this directory).

Importing the package prepares the process to measure the library *as
shipped*: every ``DRBAC_*`` switch is removed from the environment
before any ``repro`` module can read it (the switches are sampled at
import time), and ``src/`` is put on the path.  Both happen here, ahead
of every sibling module's ``import repro...``, because the order is
what makes the scrub effective.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(REPO_ROOT, "src")

# name -> value the variable had; recorded in the result header.
SCRUBBED_ENV = {name: os.environ.pop(name)
                for name in sorted(os.environ)
                if name.startswith("DRBAC_")}

if SRC not in sys.path:
    sys.path.insert(0, SRC)
