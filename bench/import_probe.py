"""Child process for setup_s: time a fresh interpreter's `import chiral_casimir.cli`.

Run with the package's src directory on PYTHONPATH.  Prints one JSON line
with the import wall time.
"""

import time

t0 = time.perf_counter()
import chiral_casimir.cli  # noqa: E402,F401

t1 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0}))
