"""Time one fresh process's set-up and print it in seconds.

Set-up is importing ``rflowlab.cli``, then loading and validating the
config, up to the first experiment call. Usage:

    python3 perfbench/setup_probe.py <src dir> <config.json>

Run with ``-X importtime`` to see the import of each module on stderr.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from rflowlab.cli import load_config, validate  # noqa: E402

problems = validate(load_config(sys.argv[2]))
elapsed = time.perf_counter() - t0
if problems:
    sys.exit("config error: " + "; ".join(problems))
print(repr(elapsed))
