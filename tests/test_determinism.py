"""Hash-seed independence: fingerprints and stored bytes must not
depend on ``PYTHONHASHSEED``.

Every persistent surface is canonicalized (sorted keys, canonical
JSON), so two interpreters with *different* hash seeds must produce
identical :class:`~repro.api.spec.ExperimentSpec` fingerprints and
bitwise-identical :class:`~repro.api.runstore.RunStore` entries.  The
static-analysis taint rule guards this statically; this test guards it
end-to-end, in real subprocesses, through a real profile + predict run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The child workload: profile -> predict -> RunStore, then report
#: every persistent artifact's identity on stdout.
CHILD_SCRIPT = '''
import hashlib, json
from repro.api import ExperimentSpec, Session
from repro.api.runstore import RunStore

profile_spec = ExperimentSpec(
    "profile", workloads=["gcc"], output="gcc.profile",
    instructions=4000,
)
predict_spec = ExperimentSpec(
    "predict", profile="gcc.profile", width=2, rob=64, llc_mb=2,
)
with Session() as session:
    session.run(profile_spec)
    result = session.run(predict_spec)
store = RunStore("runs")
key = store.put(result)
with open(store.path(key), "rb") as handle:
    run_blob = handle.read()
with open("gcc.profile", "rb") as handle:
    profile_blob = handle.read()
print(json.dumps({
    "profile_spec_fingerprint": profile_spec.fingerprint,
    "predict_spec_fingerprint": predict_spec.fingerprint,
    "store_key": key,
    "store_sha256": hashlib.sha256(run_blob).hexdigest(),
    "profile_sha256": hashlib.sha256(profile_blob).hexdigest(),
}))
'''


def _run_child(tmp_path: Path, hash_seed: str) -> dict:
    """Run the child workload under one PYTHONHASHSEED; parse stdout."""
    workdir = tmp_path / f"seed-{hash_seed}"
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_artifacts_identical_across_hash_seeds(tmp_path):
    """Two interpreters, two hash seeds, identical persistent bytes."""
    first = _run_child(tmp_path, "0")
    second = _run_child(tmp_path, "31337")
    assert first == second
    # The stored run file is bitwise identical, not merely equivalent.
    key = first["store_key"]
    entry = Path("runs") / key[:2] / f"{key}.run.json"
    blob_a = (tmp_path / "seed-0" / entry).read_bytes()
    blob_b = (tmp_path / "seed-31337" / entry).read_bytes()
    assert blob_a == blob_b
    assert hashlib.sha256(blob_a).hexdigest() == first["store_sha256"]
