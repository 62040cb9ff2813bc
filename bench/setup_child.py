"""Child process of the ``setup_s`` measurement.

A fresh interpreter imports ``fasttrack.cli`` and loads a scenario, which
every command-line call pays before doing any work.  Prints one JSON line
with the module file it imported and the two durations.

    PYTHONPATH=src python3 bench/setup_child.py bench/data/<scenario>.txt
"""

import sys
import time

start = time.perf_counter()
import fasttrack.cli  # noqa: E402

imported = time.perf_counter()
from fasttrack.scenario import load_scenario  # noqa: E402

load_scenario(sys.argv[1])
loaded = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "file": fasttrack.cli.__file__,
    "import_s": imported - start,
    "load_s": loaded - imported,
}))
