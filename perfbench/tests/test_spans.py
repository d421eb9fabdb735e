"""The span recorder: nesting, self time, patching and percentiles."""

import asyncio

import pytest

from perfbench.spans import (
    Patcher,
    SpanRecorder,
    covered,
    percentiles,
    stratified,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    outer = recorder.open("outer")          # t=0
    clock.now = 1.0
    child = recorder.open("child")          # t=1
    clock.now = 2.0
    grandchild = recorder.open("grand")     # t=2
    clock.now = 2.5
    recorder.close(*grandchild)             # t=2.5
    clock.now = 4.0
    recorder.close(*child)                  # t=4
    clock.now = 5.0
    second = recorder.open("child")         # t=5
    clock.now = 6.0
    recorder.close(*second)                 # t=6
    clock.now = 10.0
    recorder.close(*outer)                  # t=10
    names = [s.name for s in recorder.spans]
    parents = [s.parent for s in recorder.spans]
    assert names == ["outer", "child", "grand", "child"]
    assert parents == [None, 0, 1, 0]
    assert recorder.self_times() == pytest.approx([6.0, 2.5, 0.5, 1.0])


def test_covered_merges_overlapping_children():
    assert covered(0, 10, [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7.0)
    assert covered(0, 10, []) == 0.0


def test_patcher_wraps_and_restores_functions_methods_and_coroutines():
    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, data):
            return len(data)

    async def fetch(x):
        await asyncio.sleep(0)
        return x * 2

    namespace = type("Namespace", (), {"fetch": staticmethod(fetch)})
    recorder = SpanRecorder()
    original = Thing.__dict__["method"]
    with Patcher(recorder) as patcher:
        patcher.wrap(Thing, "method", "m")
        patcher.wrap(Thing, "build", "b",
                     lambda span, args, result: span.attrs.update(n=result))
        patcher.wrap(namespace, "fetch", "f")
        assert Thing().method(1) == 2
        assert Thing.build(b"abc") == 3
        assert asyncio.run(namespace.fetch(4)) == 8
    assert Thing.__dict__["method"] is original
    assert [s.name for s in recorder.spans] == ["m", "b", "f"]
    assert recorder.spans[1].attrs == {"n": 3}


def test_concurrent_tasks_keep_separate_parents():
    recorder = SpanRecorder()

    async def leaf():
        await asyncio.sleep(0)

    namespace = type("Namespace", (), {"leaf": staticmethod(leaf)})

    async def task(name):
        index, token = recorder.open(name)
        await namespace.leaf()
        await asyncio.sleep(0)
        recorder.close(index, token)

    async def main():
        await asyncio.gather(task("a"), task("b"))

    with Patcher(recorder) as patcher:
        patcher.wrap(namespace, "leaf", "leaf")
        asyncio.run(main())
    by_index = {i: s for i, s in enumerate(recorder.spans)}
    for span in recorder.spans:
        if span.name == "leaf":
            assert by_index[span.parent].name in ("a", "b")
    parents = {by_index[s.parent].name for s in recorder.spans if s.name == "leaf"}
    assert parents == {"a", "b"}


def test_percentiles_state_their_sample_counts():
    summary = percentiles(range(1, 201))  # 1..200
    assert summary.count == 200
    assert summary.p50 == pytest.approx(100.5)
    assert summary.p95 == pytest.approx(190.05)
    assert summary.beyond_p95 == 10
    assert summary.p95_supported
    thin = percentiles(range(100))
    assert thin.count == 100 and thin.beyond_p95 == 5
    assert not thin.p95_supported
    with pytest.raises(ValueError):
        percentiles([])


def test_stratified_percentiles_do_not_hang_on_the_mix_of_inputs():
    shape = [1.0 + i / 100 for i in range(100)]  # each input's own spread
    one = stratified(shape, [0] * 100)
    plain = percentiles(shape)
    assert (one.p50, one.p95, one.count) == pytest.approx(
        (plain.p50, plain.p95, plain.count)
    )
    # Four inputs, each costing 1 or 3.  A pooled p95 jumps from the
    # cheap to the dear inputs' tail as the draw changes; the stratified
    # p50 moves like a mean and its tail keeps each input's shape.
    for cheap, dear in ((3, 1), (1, 3), (2, 2)):
        values = shape * cheap + [3 * v for v in shape] * dear
        strata = [i // 100 for i in range(len(values))]
        mix = stratified(values, strata)
        expected_p50 = (cheap * plain.p50 + dear * 3 * plain.p50) / 4
        assert mix.p50 == pytest.approx(expected_p50)
        assert mix.p95 / mix.p50 == pytest.approx(plain.p95 / plain.p50)
        assert mix.count == 400
