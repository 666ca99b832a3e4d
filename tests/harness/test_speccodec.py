"""Round-trip tests for the queue's JSON spec codec."""
import json

import pytest

from repro.cpu.config import baseline_machine, uve_machine
from repro.errors import ConfigError
from repro.harness.runner import RunSpec
from repro.harness.speccodec import (
    decode,
    encode,
    spec_from_json,
    spec_to_json,
)
from repro.isa.microop import OpClass


SPECS = [
    RunSpec("saxpy", "uve"),
    RunSpec("memcpy", "sve", baseline_machine()),
    RunSpec("gemm", "uve", uve_machine(vector_bits=128), unroll=2),
    RunSpec("stream", "neon"),
    RunSpec(
        "dot", "uve",
        uve_machine().with_(
            engine=uve_machine().engine.__class__(fifo_depth=4),
        ),
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kernel}-{s.isa}")
    def test_spec_equality(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kernel}-{s.isa}")
    def test_fingerprint_preserved(self, spec):
        """The decoded spec must produce the identical cache key — the
        whole point of shipping specs through the queue."""
        decoded = spec_from_json(spec_to_json(spec))
        assert decoded.key(0.5, 7) == spec.key(0.5, 7)

    def test_payload_is_plain_json(self):
        payload = spec_to_json(SPECS[2])
        parsed = json.loads(payload)  # no pickle, human-inspectable
        assert parsed["__dc__"] == "RunSpec"
        assert parsed["kernel"] == "gemm"

    def test_latency_table_roundtrips(self):
        """Dict[OpClass, int] — non-string keys — survives the codec."""
        cfg = uve_machine()
        decoded = decode(json.loads(json.dumps(encode(cfg))))
        assert decoded.latencies == cfg.latencies
        assert all(isinstance(k, OpClass) for k in decoded.latencies)


class TestFailsLoudly:
    def test_unknown_dataclass_tag(self):
        with pytest.raises(ConfigError, match="unknown dataclass"):
            decode({"__dc__": "Nonexistent"})

    def test_unknown_enum_tag(self):
        with pytest.raises(ConfigError, match="unknown enum"):
            decode({"__enum__": ["Nonexistent", "X"]})

    def test_non_spec_payload_rejected(self):
        with pytest.raises(ConfigError, match="expected RunSpec"):
            spec_from_json(json.dumps({"just": "a dict"}))

    def test_field_the_tree_lacks_is_refused(self):
        payload = json.loads(spec_to_json(RunSpec("saxpy", "uve")))
        payload["lowering"] = None
        with pytest.raises(
            ConfigError,
            match=r"^queue entry for RunSpec: unexpected field\(s\) lowering$",
        ):
            spec_from_json(json.dumps(payload))

    def test_field_without_default_is_required(self):
        payload = json.loads(spec_to_json(RunSpec("saxpy", "uve")))
        del payload["isa"]
        payload["extra"] = 1
        with pytest.raises(
            ConfigError,
            match=r"^queue entry for RunSpec: unexpected field\(s\) extra; "
            r"missing field\(s\) isa$",
        ):
            spec_from_json(json.dumps(payload))

    def test_nested_config_fields_are_checked(self):
        payload = json.loads(spec_to_json(SPECS[1]))
        payload["config"]["core"]["rob"] = 64
        with pytest.raises(
            ConfigError, match=r"CoreConfig: unexpected field\(s\) rob"
        ):
            spec_from_json(json.dumps(payload))

    def test_unencodable_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot encode"):
            encode(object())
