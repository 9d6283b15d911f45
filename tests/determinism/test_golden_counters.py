"""Golden solver-effort counters: identical inputs, identical search.

The term layer orders and hashes terms by creation serial, so a query's
SAT search no longer depends on memory addresses or string hashing. This
test pins that down: ``probe.py`` runs a few small IFCL verification and
SynthCL CEGIS queries in a fresh interpreter, under three
``PYTHONHASHSEED`` values and in both query orders, and every run must
reproduce ``golden_counters.json`` exactly.

A change that legitimately moves the search (a new encoding, a different
canonical order) regenerates the file with::

    PYTHONPATH=src python tests/determinism/probe.py --write

and says in CHANGES.md why the counters moved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
SRC = HERE.parents[1] / "src"

# Three hash seeds and both query orders (one seed in both orders).
FORWARD, REVERSE = (), ("--reverse",)
CONFIGS = (("0", FORWARD), ("0", REVERSE), ("1", FORWARD),
           ("4242", REVERSE))


def _spawn(hash_seed, order):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("REPRO_CERTIFY", "REPRO_ANALYZE", "REPRO_TRACE"):
        env.pop(name, None)
    return subprocess.Popen([sys.executable, str(PROBE), *order], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_counters_match_golden_under_every_hash_seed_and_order():
    golden = json.loads((HERE / "golden_counters.json").read_text())
    # Two probe processes at a time.
    for start in range(0, len(CONFIGS), 2):
        batch = [(config, _spawn(*config))
                 for config in CONFIGS[start:start + 2]]
        for (seed, order), process in batch:
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            assert json.loads(out) == golden, (
                f"PYTHONHASHSEED={seed} order={order or 'forward'} drifted")
