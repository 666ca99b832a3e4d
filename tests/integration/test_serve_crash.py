"""Multi-process crash drill for the experiment service.

Boots real worker-shard subprocesses on a small sweep, SIGKILLs one
mid-campaign, and asserts the contract the service exists for: no job is
lost or duplicated, the surviving shard finishes the campaign via lease
expiry, and the result rows are byte-identical to an in-process
reference.  This is the same drill CI runs from the command line.  A
Ctrl-C'd sharded sweep must exit 130 and take its shards down with it."""
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.serve import (
    ExperimentService,
    _worker_env,
    serve_workers,
)
from repro.harness.sweep import SweepSpec, run_sweep

SCALE = 0.05

#: small enough to finish in seconds, big enough that a mid-campaign
#: SIGKILL reliably lands while jobs are still pending.
SWEEP = {
    "name": "crash-drill",
    "kernels": ["saxpy", "memcpy"],
    "isas": ["uve"],
    "axes": {
        "vector_bits": [128, 256, 512],
        "engine.fifo_depth": [4, 8],
    },
}


@pytest.fixture(scope="module")
def reference():
    return run_sweep(SweepSpec.from_dict(SWEEP), scale=SCALE)


class TestCrashRecovery:
    def test_sigkilled_worker_loses_nothing(self, tmp_path, reference):
        spec = SweepSpec.from_dict(SWEEP)
        payload = run_sweep(
            spec, tmp_path / "c", workers=2, scale=SCALE,
            lease_seconds=3.0, chaos_kill=1, timeout_s=300.0,
        )
        # One shard was SIGKILLed (exit -9), the other drained the queue.
        assert -9 in payload["jobs"]["worker_exits"]
        queue = payload["jobs"]["queue"]
        assert queue["done"] == queue["total"] == 12
        assert queue["dead"] == queue["pending"] == queue["leased"] == 0
        # No loss, no duplication: rows byte-identical to the in-process
        # reference, one row per expanded point.
        assert json.dumps(payload["rows"]) == \
            json.dumps(reference["rows"])

        # The chaos kill is visible in the structured event log, and any
        # lease the victim held was requeued at most once.
        service = ExperimentService(tmp_path / "c", scale=SCALE, seed=0)
        events = service.queue.events()
        assert any(e["event"] == "chaos-kill" for e in events)
        assert all(job.requeues <= 1 for job in service.queue.jobs())

        # Resume after the chaos run: pure cache hits, same bytes.
        resumed = run_sweep(
            spec, tmp_path / "c", workers=1, scale=SCALE,
            resume=True, timeout_s=120.0,
        )
        assert json.dumps(resumed["rows"]) == \
            json.dumps(reference["rows"])
        assert resumed["jobs"]["cache_hit_rate"] == 1.0

    def test_all_workers_killed_then_cold_restart(self, tmp_path,
                                                  reference):
        """Worst case: every shard dies (supervisor torn down mid-flight).
        A later cold start on the same campaign dir finishes the sweep."""
        spec = SweepSpec.from_dict(SWEEP)
        root = tmp_path / "c"
        service = ExperimentService(
            root, scale=SCALE, seed=0, lease_seconds=3.0,
        )
        service.submit_many([p.spec for p in spec.expand()])
        # Run shards bounded to a few jobs each, so they exit with the
        # queue half-drained — indistinguishable from a machine crash
        # (plus any stale lease a real crash would leave).
        serve_workers(root, workers=2, max_jobs=3)
        counts = service.queue.counts()
        assert 0 < counts["done"] < counts["total"]

        payload = run_sweep(
            spec, root, workers=2, scale=SCALE, resume=True,
            timeout_s=300.0,
        )
        assert json.dumps(payload["rows"]) == \
            json.dumps(reference["rows"])
        assert payload["jobs"]["queue"]["done"] == 12


def _shard_pids(root) -> list:
    """Pids of live worker shards serving the campaign at ``root``."""
    needle = f"--queue\0{root}\0--worker\0".encode()
    pids = []
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() and \
                    needle in (proc / "cmdline").read_bytes():
                pids.append(int(proc.name))
        except OSError:
            pass  # the process exited while we looked
    return pids


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(),
                    reason="finds the shards through /proc")
class TestInterrupt:
    def test_ctrl_c_exits_130_and_stops_booted_shards(self, tmp_path):
        """SIGINT to the sweep alone (not its process group): the sweep
        stops the shards it booted and exits 130, no traceback."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SWEEP))
        root = tmp_path / "c"
        events = root / "events.jsonl"
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.sweep", str(path),
             "--queue", str(root), "--workers", "2", "--scale", "0.25"],
            env=_worker_env(), stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and not (
                    len(_shard_pids(root)) == 2 and events.exists()
                    and b'"leased"' in events.read_bytes()):
                time.sleep(0.05)
            assert len(_shard_pids(root)) == 2, "shards never started"
            sweep.send_signal(signal.SIGINT)
            _, err = sweep.communicate(timeout=60.0)
            assert sweep.returncode == 130, err
            assert "Traceback" not in err
            assert "campaign interrupted" in err
            assert _shard_pids(root) == []
        finally:
            if sweep.poll() is None:
                sweep.kill()
                sweep.wait()
            for pid in _shard_pids(root):
                os.kill(pid, signal.SIGKILL)

