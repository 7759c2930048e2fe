"""Tests of the benchmark's own code: span arithmetic, output checks and
the scaling of request times by the host-speed yardstick and its
samples.

Run with ``python -m pytest hostbench``; nothing here imports the
simulator.
"""

import pytest

import tracing
from checks import (BIAS_TOLERANCE, StreamCheck, first_difference,
                    replay_check, stream_checks)
from tracing import Span
from workloads import Loop
import yardstick


def span(name, start, end, parent=-1, thread=1):
    return Span(name, start, end, parent, 0, thread)


#: request [0, 100) holds a [10, 50) (which holds b [20, 30)) and
#: c [60, 90); d [0, 500) ran on another thread.
TREE = [
    span("request", 0, 100),
    span("x.a", 10, 50, parent=0),
    span("y.b", 20, 30, parent=1),
    span("x.c", 60, 90, parent=0),
    span("z.d", 0, 500, thread=2),
]


def layer_of(name):
    return None if name == "request" else name.split(".")[0]


def test_self_time_subtracts_children():
    assert tracing.self_times(TREE) == [30, 30, 10, 30, 500]


def test_self_time_counts_overlapping_children_once():
    spans = [span("p", 0, 100), span("a", 10, 60, parent=0),
             span("b", 40, 80, parent=0), span("c", 90, 120, parent=0)]
    assert tracing.self_times(spans)[0] == 100 - 70 - 10


def test_ledger_closes_on_the_client_thread():
    selfs = tracing.self_times(TREE)
    ledger = tracing.ledger(TREE, selfs, 120, layer_of, thread=1)
    assert ledger.layers == {"x": 60, "y": 10}
    # The request root's own 30 ns and the 20 ns outside any request
    # are unattributed; thread 2's span is left out.
    assert ledger.unattributed == 50
    assert sum(ledger.layers.values()) + ledger.unattributed == ledger.wall
    assert ledger.unattributed_pct() == pytest.approx(100 * 50 / 120)


def test_totals_per_name():
    selfs = tracing.self_times(TREE)
    table = tracing.totals(TREE, selfs)
    assert table["x.a"] == (1, 40, 30)
    assert table["request"] == (1, 100, 30)


def test_wrapped_calls_nest_and_carry_the_request():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner(value):
        return value + 1

    traced_inner = tracer.wrap(inner, "layer.inner",
                               lambda counts, args, result:
                               counts.update(calls=1))

    def outer(value):
        return traced_inner(value) * 2

    traced_outer = tracer.wrap(outer, "layer.outer")
    tracer.request = 7
    assert traced_outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span.parent, inner_span.parent) == (-1, 0)
    assert inner_span.request == 7
    assert outer_span.start < inner_span.start < inner_span.end \
        < outer_span.end
    assert tracer.counts["calls"] == 1
    assert traced_outer.__qualname__ == outer.__qualname__


def test_wrapped_exception_is_recorded_and_reraised():
    tracer = tracing.Tracer()

    def fail():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap(fail, "layer.fail")()
    (recorded,) = tracer.spans
    assert recorded.error == "KeyError"
    assert recorded.end >= recorded.start


def test_patches_restore_class_and_module_attributes():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    owner = tracing.defining_class(Child, "method")
    assert owner is Base
    patches = tracing.Patches()
    patches.bind(owner, "method", lambda self: "patched")
    assert Child().method() == "patched"
    patches.restore()
    assert Child().method() == "base"


def test_one_flipped_bit_fails_the_replay():
    served = bytes(range(256)) * 64
    for bit in (0, 7, 8 * 1000 + 3, 8 * len(served) - 1):
        flipped = bytearray(served)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        assert first_difference(served, bytes(flipped)) == bit
        check = replay_check("replay", served, bytes(flipped))
        assert not check.ok
        assert f"bit {bit}" in check.detail
    assert replay_check("replay", served, served).ok


def test_a_truncated_replay_fails():
    served = b"\x55" * 32
    assert first_difference(served, served[:-1]) == 8 * 31
    assert not replay_check("replay", served, served[:-1]).ok


def test_short_reads_and_biased_streams_fail():
    stream = StreamCheck(keep_requests=1)
    assert stream.served(4, b"\x0f\xf0\x33\xcc")
    assert not stream.served(4, b"\x00\x00")
    assert bytes(stream.prefix) == b"\x0f\xf0\x33\xcc"
    lengths, bias = stream_checks(stream)
    assert not lengths.ok
    assert not bias.ok      # 16 ones in 48 bits

    balanced = StreamCheck()
    balanced.served(2, b"\xaa\x55")
    assert all(check.ok for check in stream_checks(balanced))
    assert abs(balanced.ones_fraction() - 0.5) < BIAS_TOLERANCE


def test_latencies_scale_by_the_yardsticks_around_their_window():
    # Requests 0-1 ran between slowdowns of 1 and 3 (mean 2), request 2
    # between 3 and 1, requests 3-4 between 1 and 1.
    latencies = [40, 60, 80, 10, 30]
    loop = Loop(latencies, [8] * 5, 0, 0, StreamCheck(),
                marks=[(0, 1.0), (2, 3.0), (3, 1.0), (5, 1.0)])
    assert loop.scaled_ns() == [20, 30, 40, 10, 30]
    assert loop.scaled_rate() == pytest.approx(40 / 130)
    assert loop.mean_slowdown() == pytest.approx(6 / 4)
    assert loop.window_rates() == [pytest.approx((16 / 50, 2 / 50)),
                                   pytest.approx((8 / 40, 1 / 40)),
                                   pytest.approx((16 / 40, 2 / 40))]


def test_samples_taken_during_requests_join_their_window():
    # Window 0 (requests 0-1) has marks 1 and 3 and samples 2 and 6
    # (mean 3); window 1 (request 2) has marks 3 and 1 only (mean 2).
    loop = Loop([30, 60, 80], [8] * 3, 0, 0, StreamCheck(),
                marks=[(0, 1.0), (2, 3.0), (3, 1.0)],
                samples=[(1, 6.0), (0, 2.0)])
    assert loop.windows() == [(0, 2, 3.0), (2, 3, 2.0)]
    assert loop.scaled_ns() == [10, 20, 40]


def test_sample_pauses_leave_the_request_they_fell_in():
    ticks = iter([10, 14, 30, 33, 60, 61])
    sampler = yardstick.Sampler(0.0, lambda: next(ticks))
    sampler._sample(None, None)          # inactive: no sample
    assert sampler.samples == [] and sampler.pauses == []
    sampler.active = True
    for request in (0, 0, 1):
        sampler.request = request
        sampler._sample(None, None)
    assert [request for request, _ in sampler.samples] == [0, 0, 1]
    # Request 0 ran from 5 to 40: the pauses 10-14 and 30-33 fell in it.
    assert sampler.paused_ns(5, 40) == 7
    assert sampler.pauses == [(60, 61)]
    assert sampler.paused_ns(41, 59) == 0


def test_the_sampler_fires_during_requests_only(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(yardstick, "yardstick", lambda share: 1.0)
    before = signal.getsignal(signal.SIGALRM)
    with yardstick.Sampler(0.0, time.perf_counter_ns) as sampler:
        time.sleep(4 * yardstick.SAMPLE_PERIOD_S)
        assert sampler.samples == []
        sampler.active = True
        stop = time.perf_counter() + 4 * yardstick.SAMPLE_PERIOD_S
        while time.perf_counter() < stop:
            pass
    assert len(sampler.samples) >= 1
    assert signal.getsignal(signal.SIGALRM) is before


def test_the_loop_takes_sample_pauses_out_of_latencies(monkeypatch):
    import workloads

    class Sampler:
        samples = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def paused_ns(self, began, ended):
            return 30

    sampler = Sampler()

    class System:
        def random_bytes(self, size):
            assert sampler.active
            sampler.samples.append((sampler.request, 2.0))
            return b"\x55" * size

    ticks = iter(range(0, 1000, 100))
    monkeypatch.setattr(workloads, "yardstick", lambda share: 1.0)
    monkeypatch.setattr(workloads, "Sampler", lambda share, timer: sampler)
    monkeypatch.setattr(workloads.Workload, "timer",
                        lambda self: lambda: next(ticks))
    bulk = workloads.Workload("w", "serial", (4,), 0, 0)
    loop = workloads.serve(System(), bulk, StreamCheck(), requests=2,
                           window_ns=1, sample=True)
    # Each request took 100 ticks, 30 of them sampling.
    assert loop.latencies_ns == [70, 70]
    assert loop.samples == [(0, 2.0), (1, 2.0)]
    assert not sampler.active


def test_an_empty_window_has_no_rate():
    loop = Loop([10], [8], 0, 0, StreamCheck(),
                marks=[(0, 1.0), (0, 1.0), (1, 2.0)])
    # 10 ns between slowdowns of 1 and 2 scale to 10 / 1.5 ns.
    assert loop.window_rates() == [pytest.approx((1.2, 0.15))]


def test_in_process_workloads_are_timed_in_thread_cpu_time():
    import time

    import workloads

    assert workloads.WORKLOADS["bulk_serial"].timer() is time.thread_time_ns
    assert workloads.WORKLOADS["bulk_remote"].timer() \
        is time.perf_counter_ns


def test_the_loop_brackets_every_window_with_a_yardstick(monkeypatch):
    import workloads

    ticks = iter(range(1, 100))
    monkeypatch.setattr(workloads, "yardstick", lambda share: next(ticks))

    class System:
        def random_bytes(self, size):
            return b"\x55" * size

    bulk = workloads.Workload("w", "serial", (4,), 0, 0)
    loop = workloads.serve(System(), bulk, StreamCheck(), requests=3,
                           window_ns=1)
    # Every request is a window: a yardstick before each and one after.
    assert loop.marks == [(i, i + 1) for i in range(4)]
    assert len(loop.scaled_ns()) == 3
    assert loop.failed == 0


def test_the_stream_share_weighs_the_two_kernels(monkeypatch):
    monkeypatch.setattr(yardstick, "compute_ns",
                        lambda: 2 * yardstick.REFERENCE_NS)
    monkeypatch.setattr(yardstick, "stream_ns",
                        lambda: yardstick.REFERENCE_STREAM_NS)
    assert yardstick.yardstick() == 2.0
    assert yardstick.yardstick(0.5) == 1.5

    def not_run():
        raise AssertionError("a kernel of weight 0 ran")

    monkeypatch.setattr(yardstick, "compute_ns", not_run)
    assert yardstick.yardstick(1.0) == 1.0
