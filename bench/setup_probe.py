"""Set-up cost of a workload, and the host's speed, timed in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR SYSTEMS_JSON

Imports ``blowup.cli`` from SRC_DIR, then builds every catalog system in
SYSTEMS_JSON (a list of [name, parameters] pairs) with ``catalog_get`` and
``to_charts``, and times that.  Then it times a fixed chunk of
benchmark-owned work (bench/reference.py) several times.  It prints one JSON
object: ``setup_s``, the set-up seconds, and ``chunk_s``, the chunk's median
seconds.
"""

import json
import statistics
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blowup.cli  # noqa: E402,F401  (the import is what is being timed)
from blowup.algebra import to_charts  # noqa: E402
from blowup.hamiltonian import PolynomialHamiltonian, hamiltonian_field  # noqa: E402
from blowup.scenarios import catalog_get  # noqa: E402

for name, params in json.loads(sys.argv[2]):
    system = catalog_get(name, params).system
    if isinstance(system, PolynomialHamiltonian):
        system = hamiltonian_field(system)
    to_charts(system)
setup_s = time.perf_counter() - start

from reference import time_chunks  # noqa: E402  (bench/ is this script's directory)

CHUNKS = 5

# The chunks run in the interpreter whose set-up was just timed, right after
# it, so they see the host's speed during the set-up.
print(json.dumps({"setup_s": setup_s, "chunk_s": statistics.median(time_chunks(CHUNKS))}))
