"""Earliest-legal-time DDR4 command scheduler.

The scheduler answers one question: *when is the earliest this command
can go on the command bus?*  It tracks, per bank and globally, every
constraint relevant to the paper's command sequences:

===================  =====================================================
constraint           meaning
===================  =====================================================
tRCD                 ACT -> first RD/WR, same bank
tRAS                 ACT -> PRE, same bank
tRP                  PRE -> ACT, same bank
tRC                  ACT -> ACT, same bank
tRRD_S / tRRD_L      ACT -> ACT, other bank group / same bank group
tFAW                 at most 4 ACTs per rolling tFAW window
tCCD_S / tCCD_L      RD/WR -> RD/WR, other bank group / same bank group
tWR                  last WR data -> PRE, same bank
tBL                  data-bus occupancy of each RD/WR burst
===================  =====================================================

Two entry points:

* :meth:`CommandScheduler.schedule` -- place a command at the earliest
  legal time at or after ``not_before``;
* :meth:`CommandScheduler.schedule_at` -- place a command at an exact
  time, *without* legality checks (the deliberate-violation path used by
  QUAC and RowClone sequences); the caller owns the consequences.

The command-bus itself serializes commands at one per command-clock
(modelled as one bus clock); data-bus conflicts between reads and writes
are tracked via a single shared data-bus free time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.commands import Command, CommandKind, CommandTrace
from repro.dram.timing import TimingParameters
from repro.errors import ProtocolError


@dataclass(frozen=True)
class ScheduledCommand:
    """A command together with the time the scheduler placed it."""

    command: Command

    @property
    def time_ns(self) -> float:
        return self.command.time_ns


class _BankTracker:
    """Per-bank constraint bookkeeping."""

    def __init__(self) -> None:
        self.last_act: Optional[float] = None
        self.last_pre: Optional[float] = None
        self.last_write_end: Optional[float] = None
        self.row_open = False


class CommandScheduler:
    """Places DDR4 commands at their earliest legal bus times."""

    def __init__(self, timing: TimingParameters) -> None:
        self.timing = timing
        self._banks: Dict[Tuple[int, int], _BankTracker] = {}
        self._act_times: List[float] = []         # for tFAW
        self._last_act_time: Optional[float] = None
        self._last_act_group: Optional[int] = None
        self._last_column_time: Optional[float] = None
        self._last_column_group: Optional[int] = None
        self._data_bus_free = 0.0
        self._command_bus_free = 0.0
        self.trace = CommandTrace()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def makespan_ns(self) -> float:
        """Time from the first command to completion of the last burst."""
        if len(self.trace) == 0:
            return 0.0
        return max(self.trace[-1].time_ns, self._data_bus_free) \
            - self.trace[0].time_ns

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def earliest(self, kind: CommandKind, bank_group: int, bank: int,
                 not_before: float = 0.0,
                 overrides: Optional[Dict[str, Optional[float]]] = None
                 ) -> float:
        """Earliest issue time for a command of ``kind``.

        ``overrides`` replaces named same-bank constraints with explicit
        gaps: ``{"tRAS": 2.5}`` places a PRE 2.5 ns after the last ACT
        (the QUAC violation); a value of ``None`` drops the constraint
        entirely.  Cross-bank constraints (tRRD, tFAW, tCCD, bus
        occupancy) always apply -- the command bus is shared no matter
        how aggressively one bank is driven.
        """
        overrides = overrides or {}

        def limit(name: str, default: float) -> Optional[float]:
            if name in overrides:
                return overrides[name]
            return default

        t = max(not_before, self._command_bus_free)
        tracker = self._tracker(bank_group, bank)
        timing = self.timing
        if kind is CommandKind.ACT:
            trp = limit("tRP", timing.tRP)
            if tracker.last_pre is not None and trp is not None:
                t = max(t, tracker.last_pre + trp)
            trc = limit("tRC", timing.tRC)
            if tracker.last_act is not None and trc is not None:
                t = max(t, tracker.last_act + trc)
            if self._last_act_time is not None:
                gap = (timing.tRRD_L
                       if self._last_act_group == bank_group
                       else timing.tRRD_S)
                t = max(t, self._last_act_time + gap)
            tfaw = limit("tFAW", timing.tFAW)
            if len(self._act_times) >= 4 and tfaw is not None:
                t = max(t, self._act_times[-4] + tfaw)
        elif kind is CommandKind.PRE:
            tras = limit("tRAS", timing.tRAS)
            if tracker.last_act is not None and tras is not None:
                t = max(t, tracker.last_act + tras)
            twr = limit("tWR", timing.tWR)
            if tracker.last_write_end is not None and twr is not None:
                t = max(t, tracker.last_write_end + twr)
        elif kind in (CommandKind.RD, CommandKind.WR):
            if tracker.last_act is None:
                raise ProtocolError(
                    f"column command to bank ({bank_group}, {bank}) with no "
                    f"prior ACT")
            trcd = limit("tRCD", timing.tRCD)
            if trcd is not None:
                t = max(t, tracker.last_act + trcd)
            if self._last_column_time is not None:
                gap = (timing.tCCD_L
                       if self._last_column_group == bank_group
                       else timing.tCCD_S)
                t = max(t, self._last_column_time + gap)
            # The burst must find the data bus free when it starts.
            latency = timing.tCL if kind is CommandKind.RD else timing.tCWL
            t = max(t, self._data_bus_free - latency)
        return t

    def schedule(self, kind: CommandKind, bank_group: int, bank: int,
                 row: Optional[int] = None, column: Optional[int] = None,
                 not_before: float = 0.0,
                 overrides: Optional[Dict[str, Optional[float]]] = None
                 ) -> ScheduledCommand:
        """Issue a command at its earliest (possibly overridden) time."""
        t = self.earliest(kind, bank_group, bank, not_before, overrides)
        return self._commit(kind, bank_group, bank, row, column, t)

    def schedule_at(self, kind: CommandKind, bank_group: int, bank: int,
                    time_ns: float, row: Optional[int] = None,
                    column: Optional[int] = None) -> ScheduledCommand:
        """Issue a command at an exact time, bypassing legality.

        The command bus still serializes: issuing earlier than the
        previous command raises, because even a timing-violating host
        cannot reorder the bus.
        """
        if len(self.trace) and time_ns < self.trace[-1].time_ns:
            raise ProtocolError(
                f"cannot issue at {time_ns} ns before previous command at "
                f"{self.trace[-1].time_ns} ns")
        return self._commit(kind, bank_group, bank, row, column, time_ns)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _tracker(self, bank_group: int, bank: int) -> _BankTracker:
        return self._banks.setdefault((bank_group, bank), _BankTracker())

    def _commit(self, kind: CommandKind, bank_group: int, bank: int,
                row: Optional[int], column: Optional[int],
                t: float) -> ScheduledCommand:
        tracker = self._tracker(bank_group, bank)
        timing = self.timing
        if kind is CommandKind.ACT:
            tracker.last_act = t
            tracker.row_open = True
            self._act_times.append(t)
            self._last_act_time = t
            self._last_act_group = bank_group
        elif kind is CommandKind.PRE:
            tracker.last_pre = t
            tracker.row_open = False
        elif kind in (CommandKind.RD, CommandKind.WR):
            latency = timing.tCL if kind is CommandKind.RD else timing.tCWL
            burst_start = t + latency
            self._data_bus_free = max(self._data_bus_free,
                                      burst_start) + timing.tBL
            self._last_column_time = t
            self._last_column_group = bank_group
            if kind is CommandKind.WR:
                tracker.last_write_end = burst_start + timing.tBL
        command = Command(kind=kind, time_ns=t, bank_group=bank_group,
                          bank=bank, row=row, column=column)
        self.trace.append(command)
        self._command_bus_free = t + self.timing.clock_ns
        return ScheduledCommand(command)
