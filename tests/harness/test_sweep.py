"""Sweep tests: spec validation, deterministic expansion, Pareto math,
the CLI, and the acceptance contract — pooled and service rows
byte-identical to the in-process reference, resume 100% cache hits."""
import json

import pytest

from repro.cpu.config import uve_machine
from repro.errors import ConfigError
from repro.harness.sweep import (
    SweepSpec,
    main,
    pareto_front,
    resource_proxy,
    run_sweep,
)

MINI = {
    "name": "t",
    "kernels": ["saxpy", "memcpy"],
    "isas": ["uve"],
    "axes": {
        "vector_bits": [128, 512],
        "engine.fifo_depth": [4, 8],
    },
}
SCALE = 0.05


class TestSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        spec = SweepSpec.from_dict(MINI)
        points = spec.expand()
        assert len(points) == spec.point_count() == 8
        assert [p.index for p in points] == list(range(8))
        # kernels outermost, then axes in spec order.
        assert [p.kernel for p in points[:4]] == ["saxpy"] * 4
        assert points[0].axes == {"vector_bits": 128,
                                  "engine.fifo_depth": 4}
        assert points[1].axes == {"vector_bits": 128,
                                  "engine.fifo_depth": 8}
        assert points[0].spec.config.vector_bits == 128
        assert points[1].spec.config.engine.fifo_depth == 8
        # Two expansions agree exactly (stable fingerprints).
        again = SweepSpec.from_dict(MINI).expand()
        assert [p.spec.key(SCALE, 0) for p in points] == \
            [p.spec.key(SCALE, 0) for p in again]

    def test_unknown_axis_path_rejected(self):
        bad = dict(MINI, axes={"engine.no_such_field": [1]})
        with pytest.raises(ConfigError, match="no_such_field"):
            SweepSpec.from_dict(bad).expand()

    def test_unknown_kernel_rejected_before_any_run(self):
        bad = dict(MINI, kernels=["no-such-kernel"])
        with pytest.raises(Exception, match="no-such-kernel"):
            SweepSpec.from_dict(bad).expand()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep spec"):
            SweepSpec.from_dict(dict(MINI, typo=1))

    def test_streaming_axis_inconsistency_rejected(self):
        bad = dict(MINI, axes={"streaming": [False]})
        with pytest.raises(ConfigError, match="inconsistent"):
            SweepSpec.from_dict(bad).expand()


class TestParetoMath:
    def test_resource_proxy_orders_sensibly(self):
        base = uve_machine()
        assert resource_proxy(base.with_(vector_bits=128)) < \
            resource_proxy(base)
        bigger_fifo = base.with_(
            engine=base.engine.__class__(fifo_depth=16)
        )
        assert resource_proxy(bigger_fifo) > resource_proxy(base)

    def test_pareto_front_marks_dominated(self):
        def row(cycles, proxy, tag):
            return {"isa": "uve", "axes": {"t": tag}, "cycles": cycles,
                    "resource_proxy": proxy}

        entries = pareto_front([
            row(100.0, 1.0, "cheap-fast"),
            row(100.0, 2.0, "expensive-same"),   # dominated
            row(50.0, 2.0, "expensive-faster"),  # on front
            row(200.0, 3.0, "bad"),              # dominated
        ])
        by_tag = {e["axes"]["t"]: e["on_front"] for e in entries}
        assert by_tag == {"cheap-fast": True, "expensive-same": False,
                          "expensive-faster": True, "bad": False}

    def test_geomean_groups_across_kernels(self):
        rows = [
            {"isa": "uve", "axes": {"v": 1}, "cycles": 100.0,
             "resource_proxy": 1.0},
            {"isa": "uve", "axes": {"v": 1}, "cycles": 400.0,
             "resource_proxy": 1.0},
        ]
        entries = pareto_front(rows)
        assert len(entries) == 1
        assert entries[0]["geomean_cycles"] == pytest.approx(200.0)


class TestAcceptance:
    """The sharded campaign must be indistinguishable from the in-process
    reference in its result rows, and resumable with full cache hits."""

    @pytest.fixture(scope="class")
    def serial_payload(self):
        return run_sweep(SweepSpec.from_dict(MINI), scale=SCALE)

    def test_service_rows_byte_identical_to_serial(self, tmp_path,
                                                   serial_payload):
        payload = run_sweep(
            SweepSpec.from_dict(MINI), tmp_path / "c", workers=2,
            scale=SCALE, timeout_s=120.0,
        )
        assert json.dumps(payload["rows"]) == \
            json.dumps(serial_payload["rows"])
        assert payload["pareto"] == serial_payload["pareto"]
        assert payload["jobs"]["ran"] == 8
        assert payload["jobs"]["queue"]["dead"] == 0

    def test_resume_half_finished_campaign_bit_identical(
            self, tmp_path, serial_payload):
        """Stop a campaign after half its jobs, then --resume: the final
        payload rows match a fresh in-process run exactly, and the
        finished half is pure cache hits."""
        from repro.harness.serve import ExperimentService, worker_loop

        spec = SweepSpec.from_dict(MINI)
        root = tmp_path / "c"
        service = ExperimentService(root, scale=SCALE, seed=0)
        service.submit_many([p.spec for p in spec.expand()])
        assert worker_loop(root, shard_id="w0", max_jobs=4) == 4

        resumed = run_sweep(
            spec, root, workers=1, scale=SCALE, resume=True,
            timeout_s=120.0,
        )
        assert json.dumps(resumed["rows"]) == \
            json.dumps(serial_payload["rows"])
        assert resumed["jobs"]["cache_hits"] == 4
        assert resumed["jobs"]["ran"] == 4

        # Third invocation: everything is in the artifact store.
        final = run_sweep(
            spec, root, workers=1, scale=SCALE, resume=True,
            timeout_s=120.0,
        )
        assert json.dumps(final["rows"]) == \
            json.dumps(serial_payload["rows"])
        assert final["jobs"]["cache_hit_rate"] == 1.0
        assert final["jobs"]["ran"] == 0

    def test_each_point_is_keyed_once(self, monkeypatch, serial_payload):
        """A point's key deduplicates it and reads its row back."""
        import repro.harness.runner as runner_mod

        calls = []
        real = runner_mod.run_fingerprint
        monkeypatch.setattr(
            runner_mod, "run_fingerprint",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        payload = run_sweep(SweepSpec.from_dict(MINI), scale=SCALE)
        assert len(calls) == payload["jobs"]["total"] == 8
        assert json.dumps(payload["rows"]) == \
            json.dumps(serial_payload["rows"])

    def test_sharded_sweep_keys_each_point_once(self, monkeypatch, tmp_path,
                                                serial_payload):
        """The service back end submits each point under the key the
        executor computed instead of keying it again."""
        import repro.harness.runner as runner_mod

        calls = []
        real = runner_mod.run_fingerprint
        monkeypatch.setattr(
            runner_mod, "run_fingerprint",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        payload = run_sweep(SweepSpec.from_dict(MINI), tmp_path / "c",
                            workers=1, scale=SCALE, timeout_s=120.0)
        assert payload["jobs"]["mode"] == "service"
        assert len(calls) == payload["jobs"]["total"] == 8
        assert json.dumps(payload["rows"]) == \
            json.dumps(serial_payload["rows"])

    def test_pool_rows_match_in_process(self, serial_payload):
        pooled = run_sweep(SweepSpec.from_dict(MINI), workers=2,
                           scale=SCALE)
        assert pooled["jobs"]["mode"] == "pool"
        assert json.dumps(pooled["rows"]) == \
            json.dumps(serial_payload["rows"])


class TestCli:
    @pytest.mark.parametrize(
        "option",
        [["--resume"], ["--lease-seconds", "5"], ["--timeout", "60"],
         ["--chaos-kill", "1"], ["--workers", "0"]],
        ids=["resume", "lease-seconds", "timeout", "chaos-kill",
             "workers-0"],
    )
    def test_service_only_option_needs_queue(self, tmp_path, capsys,
                                             option):
        """Refused, not silently ignored: the same command line without
        the option is valid."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MINI))
        assert main([str(path), "--expand"]) == 0
        with pytest.raises(SystemExit) as exc:
            main([str(path), "--expand", *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert option[0] in err and "only with --queue DIR" in err
