"""What a fresh foatools process builds before its first op of a workload.

    python3 perfbench/setup_probe.py SRC WORKLOAD INPUTS_JSON

run.py times this script from start to exit, several times, for setup_s.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import foatools.cli  # noqa: E402,F401  (the import is part of set-up)
from foatools.code_pattern import Pattern  # noqa: E402
from foatools.foa import SphereGrid  # noqa: E402
from foatools.guidance import TablePredictor  # noqa: E402
from foatools.tensor_io import read_code_matrix  # noqa: E402

workload = sys.argv[2]
with open(sys.argv[3], encoding="utf-8") as handle:
    inputs = json.load(handle)
if workload in ("spatial_eval", "corpus_prep"):
    bands, azimuths = map(int, inputs["grid"].split("x"))
    SphereGrid(bands, azimuths)
elif workload == "generate_guided":
    TablePredictor(read_code_matrix(inputs["table"]), Pattern.PROPOSED)
