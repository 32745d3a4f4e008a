"""Real-geometry replay: a recorded 2LM access stream vs the scalar model.

The property tests drive caches of 4-16 sets. This test records every
``access_range`` call of ResNet 200 (small) under ``2LM:0`` at scale 2048 —
a 21,457-set cache fed 8,522 accesses over 261,990 lines — and replays the
stream line by line through the scalar reference model, which must agree on
every access's ``(hits, clean, dirty)`` counts.
"""

from test_dramcache_property import ScalarCache

from repro.experiments.common import ExperimentConfig, run_trace_mode
from repro.nn.models import MODEL_REGISTRY
from repro.twolm.dramcache import DramCacheSim

SCALE = 2048


def _record_stream(monkeypatch) -> tuple[list, list[DramCacheSim]]:
    calls = []
    caches = []
    original = DramCacheSim.access_range

    def recording(self, addr, size, *, is_write):
        result = original(self, addr, size, is_write=is_write)
        if self not in caches:
            caches.append(self)
        counts = (result.hits, result.clean_misses, result.dirty_misses)
        calls.append((addr, size, is_write, counts))
        return result

    monkeypatch.setattr(DramCacheSim, "access_range", recording)
    trace = MODEL_REGISTRY["resnet200-small"].builder().training_trace()
    run_trace_mode(trace.scaled(SCALE), "2LM:0", ExperimentConfig(scale=SCALE))
    return calls, caches


def test_recorded_stream_matches_scalar_reference(monkeypatch):
    calls, caches = _record_stream(monkeypatch)
    assert len(caches) == 1
    sim = caches[0]
    assert (sim.ways, sim.num_sets) == (1, 21_457)
    assert len(calls) == 8_522
    ref = ScalarCache(sim.num_sets, sim.line_size)
    lines = 0
    for index, (addr, size, is_write, counts) in enumerate(calls):
        expected = ref.access(addr, size, is_write)
        assert counts == expected, f"access #{index} [{addr:#x}, +{size:#x})"
        lines += sum(counts)
    assert lines == 261_990
    assert sim.dirty_lines() == ref.dirty_lines()
    sim.check_invariants()
