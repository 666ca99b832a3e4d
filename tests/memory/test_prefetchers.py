"""Unit tests for the stride and AMPM prefetchers."""
import random

import pytest

from repro.memory.prefetchers import AmpmPrefetcher, StridePrefetcher


class TestStride:
    def test_trains_on_constant_stride(self):
        pf = StridePrefetcher(depth=4)
        out = []
        for i in range(5):
            out = pf.observe(pc=0x40, addr=1000 + i * 64)
        assert out  # trained after a few accesses
        # Prefetches at the configured distance ahead, in stride direction.
        assert out[0] == (1000 + 4 * 64 + 4 * 64) // 64

    def test_untrained_issues_nothing(self):
        pf = StridePrefetcher()
        assert pf.observe(0x40, 1000) == []
        assert pf.observe(0x40, 5000) == []

    def test_depth_limits_distance(self):
        pf = StridePrefetcher(depth=16, degree=16)
        out = []
        for i in range(6):
            out = pf.observe(0x40, i * 64)
        assert len(out) == 16
        assert max(out) == 5 + 16  # never beyond depth lines ahead

    def test_degree_limits_issue_rate(self):
        pf = StridePrefetcher(depth=16, degree=2)
        out = []
        for i in range(6):
            out = pf.observe(0x40, i * 64)
        assert len(out) == 2

    def test_small_stride_dedupes_lines(self):
        pf = StridePrefetcher(depth=16)
        out = []
        for i in range(6):
            out = pf.observe(0x40, i * 4)  # stride 4 B within lines
        assert len(out) == len(set(out))

    def test_stride_change_resets_confidence(self):
        pf = StridePrefetcher()
        for i in range(4):
            pf.observe(0x40, i * 64)
        assert pf.observe(0x40, 10_000) == []  # broken stride

    def test_distinct_pcs_distinct_entries(self):
        pf = StridePrefetcher()
        for i in range(4):
            pf.observe(0x40, i * 64)
        # A different PC must not inherit the training.
        assert pf.observe(0x44, 9999) == []

    def test_negative_stride(self):
        pf = StridePrefetcher(depth=2)
        out = []
        for i in range(5):
            out = pf.observe(0x40, 10_000 - i * 64)
        assert out and out[0] < 10_000 // 64


class TestAmpm:
    def test_matches_forward_unit_stride(self):
        pf = AmpmPrefetcher()
        out = []
        for i in range(4):
            out = pf.observe(0, i * 64)
        assert out
        assert (3 * 64) // 64 + 1 in out

    def test_matches_strided_pattern(self):
        pf = AmpmPrefetcher()
        out = []
        for i in range(4):
            out = pf.observe(0, i * 128)  # stride of 2 lines
        assert any(line == (3 * 2) + 2 for line in out)

    def test_matches_backward_pattern(self):
        pf = AmpmPrefetcher()
        out = []
        for i in range(4):
            out = pf.observe(0, (100 - i) * 64)
        assert any(line < 97 for line in out)

    def test_queue_size_bounds_prefetches(self):
        pf = AmpmPrefetcher(queue_size=2)
        out = []
        for i in range(10):
            out = pf.observe(0, i * 64)
        assert len(out) <= 2

    def test_zone_capacity_lru(self):
        pf = AmpmPrefetcher(zones=2)
        pf.observe(0, 0)
        pf.observe(0, 2 * 4096)
        pf.observe(0, 4 * 4096)  # evicts zone 0
        assert len(pf._zones) == 2

    def test_no_match_on_random_accesses(self):
        pf = AmpmPrefetcher()
        assert pf.observe(0, 0) == []
        assert pf.observe(0, 64 * 17) == []


def reference_ampm_scan(bitmap, offset, base, lpz, degree):
    """The stride scan as first written, bounds tested per candidate:
    the oracle for the precomputed scan plans."""
    out = []
    for stride in tuple(range(1, 9)) + tuple(range(-1, -9, -1)):
        index = offset - stride
        if index < 0 or index >= lpz or not (bitmap >> index) & 1:
            continue
        index -= stride
        if index < 0 or index >= lpz or not (bitmap >> index) & 1:
            continue
        target = offset + stride
        for _ in range(degree):
            if 0 <= target < lpz:
                candidate = base + target
                if candidate not in out:
                    out.append(candidate)
            if len(out) >= degree:
                break
            target += stride
        if len(out) >= degree:
            break
    return out


@pytest.mark.parametrize("degree", (1, 2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_ampm_scan_matches_reference(seed, degree):
    rng = random.Random(seed)
    pf = AmpmPrefetcher(zones=4, degree=degree)
    lpz = pf.lines_per_zone
    line = 0
    for _ in range(3000):
        # Runs of small strides, random jumps and zone changes.
        if rng.random() < 0.1:
            line = rng.randrange(8 * lpz)
        else:
            line = max(0, line + rng.choice((1, 1, 2, 3, -1, -2, 5, 8, 9)))
        zone, offset = divmod(line, lpz)
        bitmap = pf._zones.get(zone, 0)
        want = reference_ampm_scan(bitmap, offset, zone * lpz, lpz, degree)
        assert pf.observe(0, line * 64) == want
