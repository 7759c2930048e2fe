"""Counter-addressed thermal streams: partitions never change the bits.

Iteration ``k`` of a segment's thermal-noise stream is a pure function
of (module seed, bank, segment, ``k``), so a single-channel generator's
output must not depend on how its iterations are grouped into batches
or how its bits are split into requests -- on any backend, synchronous
or asynchronous.  The reference is the executable spec
(``tests/stream_spec.py``), which ``tests/test_stream_spec.py`` drives
every generator against; the tests here pin what that property does
not:

* a health monitor counts exactly what a fresh monitor counts when it
  checks the spec's raw read-out rows one at a time, in bank order;
* cancelling in-flight rounds loses no unit, and neither does a round
  whose join raises (say, every remote worker lost), because their
  units go back to the cursors;
* a channel whose monitor alarms loses exactly its units of that round;
* a round's bank tasks draw iteration counts that differ by at most
  one, which is what the remote backend's shard map balances on;
* async rounds sized from a varying request sequence.

A :class:`SystemTrng` stream is a sequence of *units* -- unit ``u`` is
iteration ``u // C`` of channel ``u % C`` -- so it must equal the
per-channel spec rows interleaved iteration-major, channel-minor, for
any request split, plain or monitored.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_spec
from repro.core import harvest
from repro.core.health import HealthMonitor, HealthTestFailure
from repro.core.multichannel import SystemTrng
from repro.core.parallel import (ExecutionBackend, ProcessPoolBackend,
                                 SerialBackend, ThreadPoolBackend)
from repro.core.remote import LocalCluster, RemoteBackend
from repro.core.temperature_manager import TemperatureManagedTrng
from repro.core.trng import QuacTrng
from repro.errors import RemoteExecutionError

#: Iterations of the reference stream; covers the largest example,
#: including a round an async guess gathers beyond the requests.
REFERENCE_ITERATIONS = 48

#: The single-channel generators under test ("monitored" is a
#: one-channel monitored system).
KINDS = ("quac", "monitored", "temperature")

#: The two-channel systems under test.
SYSTEM_KINDS = ("system", "monitored_system")


@pytest.fixture(scope="module", params=["serial", "thread", "process",
                                        "remote1"])
def backend(request):
    if request.param == "serial":
        yield SerialBackend()
        return
    if request.param == "thread":
        pool = ThreadPoolBackend(2)
    elif request.param == "process":
        pool = ProcessPoolBackend(2)
    else:
        pool = RemoteBackend(cluster=LocalCluster(1))
    with pool:
        yield pool


@pytest.fixture(scope="module")
def make_generator(module_m13, entropy_scale):
    def build(kind, backend=None, async_harvest=False):
        backend = backend or SerialBackend()
        entropy_per_block = 256.0 * entropy_scale
        if kind == "temperature":
            return TemperatureManagedTrng(
                module_m13, entropy_per_block=entropy_per_block,
                backend=backend, async_harvest=async_harvest)
        if kind == "monitored":
            return SystemTrng(
                [module_m13], entropy_per_block=entropy_per_block,
                backend=backend,
                monitors=[HealthMonitor(claimed_min_entropy=0.01)],
                async_harvest=async_harvest)
        return QuacTrng(module_m13, entropy_per_block=entropy_per_block,
                        backend=backend, async_harvest=async_harvest)
    return build


def _counters(monitor):
    return (monitor.samples_checked, monitor.rct_failures,
            monitor.apt_failures, monitor._consecutive)


def _spec_rows(generator):
    """The first ``REFERENCE_ITERATIONS`` units of ``generator``'s
    one channel, one row each."""
    spec = stream_spec.SpecStream(generator)
    return spec.bits(REFERENCE_ITERATIONS * spec.unit_bits()).reshape(
        REFERENCE_ITERATIONS, -1)


@pytest.fixture(scope="module")
def reference(make_generator):
    """Per kind: ``(REFERENCE_ITERATIONS, bits_per_iteration)`` spec
    rows, and (monitored only) a fresh monitor's counters after each
    iteration's raw read-out rows, checked one at a time in bank
    order."""
    streams = {}
    for kind in KINDS:
        generator = make_generator(kind)
        counters = []
        if kind == "monitored":
            monitor = HealthMonitor(claimed_min_entropy=0.01)
            banks = stream_spec.channel_banks(generator.channels[0])
            for k in range(REFERENCE_ITERATIONS):
                for key, thresholds, _ in banks:
                    monitor.check(stream_spec.read_out(key, thresholds, k))
                counters.append(_counters(monitor))
        streams[kind] = (_spec_rows(generator), counters)
    return streams


def _check_monitor(generator, counters):
    """The monitor counted exactly the reference monitor's rows."""
    monitor, channel = generator.monitors[0], generator.channels[0]
    raw_bits = (channel.configuration.n_banks
                * channel.module.geometry.row_bits)
    checked = monitor.samples_checked // raw_bits
    assert checked >= 1
    assert _counters(monitor) == counters[checked - 1]


@given(fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
       async_harvest=st.booleans(), kind=st.sampled_from(KINDS))
@settings(max_examples=12, deadline=None)
def test_any_request_split_yields_the_same_bits(
        backend, make_generator, reference, fractions, async_harvest,
        kind):
    generator = make_generator(kind, backend, async_harvest)
    width = reference[kind][0].shape[1]
    requests = [max(1, int(f * width)) for f in fractions]
    try:
        served = np.concatenate([generator.random_bits(n)
                                 for n in requests])
    finally:
        generator.harvest_engine.cancel_pending()
    want, counters = reference[kind]
    np.testing.assert_array_equal(served, want.ravel()[:sum(requests)])
    if not async_harvest:
        # Each round claims just enough iterations for its deficit.
        cursors = generator.channels[0].cursors()
        assert cursors == [-(-sum(requests) // width)] * len(cursors)
    if kind == "monitored":
        _check_monitor(generator, counters)


@pytest.fixture(scope="module")
def system_modules(module_m13, module_m4):
    return [module_m13, module_m4]


@pytest.fixture(scope="module")
def make_system(system_modules, entropy_scale):
    def build(kind, backend, async_harvest=False):
        monitors = None
        if kind == "monitored_system":
            monitors = [HealthMonitor(claimed_min_entropy=0.01,
                                      consecutive_failures_to_alarm=2)
                        for _ in system_modules]
        return SystemTrng(system_modules,
                          entropy_per_block=256.0 * entropy_scale,
                          backend=backend, monitors=monitors,
                          async_harvest=async_harvest)
    return build


@pytest.fixture(scope="module")
def channel_rows(system_modules, entropy_scale):
    """Per channel, ``REFERENCE_ITERATIONS`` spec rows of a lone
    :class:`QuacTrng`."""
    return [_spec_rows(QuacTrng(module,
                                entropy_per_block=256.0 * entropy_scale,
                                backend=SerialBackend()))
            for module in system_modules]


def _units(channel_rows, keep=lambda channel, iteration: True):
    """The unit stream: every channel's iteration 0 in channel order,
    then every channel's iteration 1, ... (``keep`` drops units)."""
    return np.concatenate([rows[k]
                           for k in range(REFERENCE_ITERATIONS)
                           for c, rows in enumerate(channel_rows)
                           if keep(c, k)])


def _serve(system, requests):
    try:
        return np.concatenate([system.random_bits(n) for n in requests])
    finally:
        system.harvest_engine.cancel_pending()


@given(fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
       async_harvest=st.booleans(), kind=st.sampled_from(SYSTEM_KINDS))
@settings(max_examples=12, deadline=None)
def test_any_request_split_of_a_system_yields_the_unit_stream(
        backend, make_system, channel_rows, fractions, async_harvest,
        kind):
    system = make_system(kind, backend, async_harvest)
    width = system.bits_per_system_iteration()
    requests = [max(1, int(f * width)) for f in fractions]
    served = _serve(system, requests)
    np.testing.assert_array_equal(served,
                                  _units(channel_rows)[:sum(requests)])


class _RecordRounds(SerialBackend):
    """The serial backend, keeping each round's task iterations."""

    def __init__(self):
        self.rounds = []

    def submit_round(self, fn, tasks):
        self.rounds.append([task.iterations for task in tasks])
        return super().submit_round(fn, tasks)


@given(fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
       async_harvest=st.booleans(), cancel=st.booleans(),
       cap=st.sampled_from([1, 7, 1024]),
       kind=st.sampled_from(SYSTEM_KINDS))
@settings(max_examples=12, deadline=None)
def test_round_tasks_draw_near_equal_iterations(
        make_system, fractions, async_harvest, cancel, cap, kind):
    # A round's units are consecutive, so its channels' shares -- and
    # with them its bank tasks' iteration counts -- differ by at most
    # one for any request split.  That is what lets the remote backend
    # shard a round by task count alone.
    recorder = _RecordRounds()
    system = make_system(kind, recorder, async_harvest)
    width = system.bits_per_system_iteration()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harvest, "MAX_BATCH_ITERATIONS", cap)
        for fraction in fractions:
            system.random_bits(max(1, int(fraction * width)))
            if cancel:
                system.harvest_engine.cancel_pending()
        system.harvest_engine.cancel_pending()
    assert recorder.rounds
    for iterations in recorder.rounds:
        assert max(iterations) - min(iterations) <= 1


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_async_system_with_varying_requests(
        backend, make_system, channel_rows, kind):
    # Async harvest sizes its rounds from the previous request, so
    # varying sizes give rounds that split system iterations
    # differently.
    system = make_system(kind, backend, async_harvest=True)
    width = system.bits_per_system_iteration()
    requests = [width // 3, 2 * width + 17, 256, 5 * width // 2, 1,
                width - 5]
    served = _serve(system, requests)
    np.testing.assert_array_equal(served,
                                  _units(channel_rows)[:sum(requests)])


def test_alarmed_channel_loses_its_units_for_that_round(
        backend, make_system, channel_rows):
    system = make_system("monitored_system", backend)
    width = system.bits_per_system_iteration()
    first = system.random_bits(3 * width // 2)
    before = [channel.cursors()[0] for channel in system.channels]
    system.channels[1].data_pattern = "1111"     # channel 1 goes dead
    with pytest.raises(HealthTestFailure):
        system.random_bits(4 * width)
    after = [channel.cursors()[0] for channel in system.channels]
    assert after[1] > before[1]
    pooled = system.random_bits(system.pooled_bits)

    def keep(channel, iteration):
        # Units claimed so far, less channel 1's in the alarmed round.
        return iteration < after[channel] and not (
            channel == 1 and iteration >= before[1])

    np.testing.assert_array_equal(np.concatenate([first, pooled]),
                                  _units(channel_rows, keep))


@pytest.mark.parametrize("kind", KINDS + SYSTEM_KINDS)
def test_cancel_pending_loses_no_units(backend, make_generator, make_system,
                                       reference, channel_rows, kind):
    # Cancelling the async round after every draw hands its units
    # back, so the stream equals one that never cancelled.
    if kind in SYSTEM_KINDS:
        generator = make_system(kind, backend, async_harvest=True)
        width = generator.bits_per_system_iteration()
        want = _units(channel_rows)
    else:
        generator = make_generator(kind, backend, async_harvest=True)
        width = reference[kind][0].shape[1]
        want = reference[kind][0].ravel()
    requests = [width // 3, 2 * width + 17, 256, 5 * width // 2, width - 5]
    served = []
    for n in requests:
        served.append(generator.random_bits(n))
        generator.harvest_engine.cancel_pending()
    assert generator.harvest_engine.rounds_cancelled > 0
    np.testing.assert_array_equal(np.concatenate(served),
                                  want[:sum(requests)])
    if kind == "monitored":
        _check_monitor(generator, reference[kind][1])


class _LostRound:
    """A round handle whose join raises once the round has run."""

    def __init__(self, pending):
        self._pending = pending

    def done(self):
        return self._pending.done()

    def result(self):
        self._pending.result()
        raise RemoteExecutionError("every remote worker was lost")


class _LoseOneRound(ExecutionBackend):
    """Delegates to ``inner``, but the second round's join raises."""

    name = "lose-one-round"

    def __init__(self, inner):
        self.inner = inner
        self.rounds = 0

    def submit_round(self, fn, tasks):
        pending = self.inner.submit_round(fn, tasks)
        self.rounds += 1
        return _LostRound(pending) if self.rounds == 2 else pending


@pytest.mark.parametrize("async_harvest", [False, True])
@pytest.mark.parametrize("kind", ["quac", "system"])
def test_failed_join_loses_no_units(backend, make_generator, make_system,
                                    reference, channel_rows, kind,
                                    async_harvest):
    # The failed round's units go back to the cursors; the stream
    # carries on as if the failure never happened.
    lossy = _LoseOneRound(backend)
    if kind == "system":
        generator = make_system(kind, lossy, async_harvest)
        width = generator.bits_per_system_iteration()
        want = _units(channel_rows)
    else:
        generator = make_generator(kind, lossy, async_harvest)
        width = reference[kind][0].shape[1]
        want = reference[kind][0].ravel()
    served, failures = [], 0
    for n in [width // 3, 2 * width + 17, 256, 5 * width // 2, width - 5]:
        try:
            served.append(generator.random_bits(n))
        except RemoteExecutionError:
            failures += 1
    generator.harvest_engine.cancel_pending()
    assert failures == 1
    served = np.concatenate(served)
    np.testing.assert_array_equal(served, want[:served.size])
