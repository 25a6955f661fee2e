"""The benchmark's verdict digests at seed 424242 and at seed 7, as a unit test.

``perfbench/run.py`` hashes the answers of a workload into one
``verdict_digest``: for the pebble workloads each verdict and, where Spoiler
wins, the death stage of the empty placement.  ``perfbench/NOTES.md`` lists
the digests of seed 424242.  Running each workload for one pass makes a
changed verdict or death stage fail the suite, not only the benchmark:
pebble-scale and fv-crosscheck exercise the pebble attractor, ef-crosscheck
and modal-crosscheck the EF and modal games, the oracle and the cofree
coalgebras.  The two pebble workloads' work counters are pinned too.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def recorded_digest(workload: str) -> str:
    notes = (ROOT / "perfbench" / "NOTES.md").read_text()
    found = re.findall(rf"- `{re.escape(workload)}`: ([0-9a-f]{{16}})", notes)
    assert len(found) == 1, f"perfbench/NOTES.md lists {len(found)} digests for {workload}"
    return found[0]


def run_bench(workload: str, seed: int, trace: int = 0, root: Path = ROOT) -> str:
    """The output of a one-second run of the harness under ``root``."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    return proc.stdout


def run_digest(workload: str, seed: int) -> list:
    return re.findall(r"verdict_digest ([0-9a-f]+)", run_bench(workload, seed))


@pytest.mark.parametrize("workload,digest", [("pebble-scale", "02eda1f9d8d91060"),
                                             ("fv-crosscheck", "6183a74cf877c864"),
                                             ("ef-crosscheck", "244a315f3c0e1e8d"),
                                             ("modal-crosscheck", "810e9a06d788e24e")])
def test_verdict_digest_at_seed_424242(workload, digest):
    assert recorded_digest(workload) == digest
    assert run_digest(workload, 424242) == [digest]


# A held-out seed for every workload.  ``perfbench/NOTES.md`` lists seed
# 424242 only, so these digests are kept here; CHANGES.md records them.
@pytest.mark.parametrize("workload,digest", [("pebble-scale", "27832494cce96fd7"),
                                             ("fv-crosscheck", "0e9e1866e9c41674"),
                                             ("ef-crosscheck", "01b79daf610b440b"),
                                             ("modal-crosscheck", "a52d6bdabf339291")])
def test_verdict_digest_at_held_out_seed_7(workload, digest):
    assert run_digest(workload, 7) == [digest]


# The work counters of ``--trace 1`` per pass at seed 424242: the dead
# placements count ``len`` of each pebble stage table, and the formula nodes
# the synthesized witnesses.  The traced run writes its spans next to its
# ``run.py``, so it runs a copy of the harness over these sources.
@pytest.mark.parametrize("workload,dead,nodes", [("fv-crosscheck", 6655, 781),
                                                 ("pebble-scale", 336109, 1065)])
def test_work_counters_at_seed_424242(workload, dead, nodes, tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "run.py", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    out = run_bench(workload, 424242, trace=1, root=tmp_path)
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    assert metrics["games.solve.pebble_dead_placements"]["value"] == dead
    assert metrics["synthesis.distinguish.formula_nodes"]["value"] == nodes
