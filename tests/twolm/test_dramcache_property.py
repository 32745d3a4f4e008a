"""Property tests: the cache simulator vs a scalar reference model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.twolm.dramcache import DramCacheSim


class ScalarCache:
    """Line-at-a-time direct-mapped reference implementation."""

    def __init__(self, num_sets: int, line: int):
        self.num_sets = num_sets
        self.line = line
        self.tags: dict[int, int] = {}
        self.dirty: dict[int, bool] = {}

    def _lines(self, addr: int, size: int) -> range:
        return range(addr // self.line, (addr + size - 1) // self.line + 1)

    def access(self, addr: int, size: int, is_write: bool):
        hits = clean = dirty = 0
        for line in self._lines(addr, size):
            index = line % self.num_sets
            if self.tags.get(index) == line:
                hits += 1
                if is_write:
                    self.dirty[index] = True
            else:
                if self.tags.get(index) is not None and self.dirty.get(index):
                    dirty += 1
                else:
                    clean += 1
                self.tags[index] = line
                self.dirty[index] = is_write
        return hits, clean, dirty

    def invalidate(self, addr: int, size: int) -> None:
        for line in self._lines(addr, size):
            index = line % self.num_sets
            if self.tags.get(index) == line:
                del self.tags[index]
                del self.dirty[index]

    def resident_fraction(self, addr: int, size: int) -> float:
        lines = self._lines(addr, size)
        found = sum(self.tags.get(line % self.num_sets) == line for line in lines)
        return found / len(lines)

    def dirty_lines(self) -> int:
        return sum(self.dirty.values())


@st.composite
def access_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return [
        (
            draw(st.integers(min_value=0, max_value=8000)),
            draw(st.integers(min_value=1, max_value=3000)),
            draw(st.booleans()),
        )
        for _ in range(n)
    ]


OPS = ("read", "write", "invalidate", "resident")


@st.composite
def op_sequences(draw):
    """Accesses mixed with the helpers; sizes up to 3000 B span up to 47
    lines, so with 4-16 sets many passes wrap past the last set and many
    accesses are longer than the cache."""
    n = draw(st.integers(min_value=1, max_value=40))
    return [
        (
            draw(st.sampled_from(OPS)),
            draw(st.integers(min_value=0, max_value=8000)),
            draw(st.integers(min_value=1, max_value=3000)),
        )
        for _ in range(n)
    ]


BACKING = 16384


@given(op_sequences(), st.sampled_from([4, 8, 16]))
# A write that wraps, a read hit that must keep it dirty, then an eviction.
@example([("write", 192, 256), ("read", 0, 64), ("read", 256, 64)], 4)
# An access longer than the cache, half invalidated, then re-read.
@example([("write", 0, 1000), ("invalidate", 640, 192), ("read", 0, 1000)], 8)
@settings(max_examples=80, deadline=None)
def test_matches_scalar_reference(ops, num_sets):
    line = 64
    sim = DramCacheSim(num_sets * line, BACKING, line_size=line)
    ref = ScalarCache(num_sets, line)
    for op, addr, size in ops:
        size = min(size, BACKING - addr)
        if op == "invalidate":
            sim.invalidate_range(addr, size)
            ref.invalidate(addr, size)
        elif op == "resident":
            assert sim.resident_fraction(addr, size) == ref.resident_fraction(
                addr, size
            )
        else:
            result = sim.access_range(addr, size, is_write=op == "write")
            expected = ref.access(addr, size, op == "write")
            assert (result.hits, result.clean_misses, result.dirty_misses) == expected
        sim.check_invariants()
        assert sim.dirty_lines() == ref.dirty_lines()


@given(access_sequences())
@settings(max_examples=40, deadline=None)
def test_traffic_identities(accesses):
    """Structural identities that hold for any access pattern."""
    line = 64
    sim = DramCacheSim(8 * line, 16384, line_size=line)
    for addr, size, is_write in accesses:
        size = min(size, 16384 - addr)
        if size <= 0:
            continue
        result = sim.access_range(addr, size, is_write=is_write)
        misses = result.clean_misses + result.dirty_misses
        lines_touched = (addr + size - 1) // line - addr // line + 1
        assert result.hits + misses == lines_touched
        assert result.nvram_read_bytes == misses * line  # write-allocate
        assert result.nvram_write_bytes == result.dirty_misses * line
        assert result.dram_bytes == (
            lines_touched * line + misses * line + result.dirty_misses * line
        )
    assert sim.dirty_lines() <= sim.num_sets


@given(st.sampled_from([64, 256, 1024]), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_hit_ratio_line_size_invariant_for_streaming(line, seed):
    """For bulk streaming sweeps, hit/miss *ratios* do not depend on the
    line size — the justification for simulating 2LM at 4 KiB lines
    (DESIGN.md section 2)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cache_bytes = 64 * 1024
    backing = 1024 * 1024
    # A streaming workload: whole-tensor sweeps, tensor sizes >> any line.
    tensors = [
        (int(rng.integers(0, 64)) * 16 * 1024, 16 * 1024) for _ in range(24)
    ]
    ratios = {}
    for line_size in (line, 4096):
        sim = DramCacheSim(cache_bytes, backing, line_size=line_size)
        for offset, size in tensors:
            sim.access_range(offset, size, is_write=bool(offset % 2))
        ratios[line_size] = sim.stats.hit_rate
    assert ratios[line] == pytest.approx(ratios[4096], abs=0.06)
