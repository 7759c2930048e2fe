"""Closed-loop PID temperature controller (the paper's Figure 7 rig).

The paper clamps module temperature with rubber heaters under PID
control, holding +/- 0.1 C of the setpoint.  This simulation models the
module as a first-order thermal plant (heater power in, temperature out,
ambient losses) driven by a discrete PID loop, and exposes the same
guarantee: after settling, the temperature stays within a tolerance band
around the setpoint.

Besides fidelity to the experimental setup, this exists so temperature-
sweep experiments (Figure 14) exercise a realistic control path: the
sweep sets a target, steps the controller to convergence, then stamps the
achieved temperature onto the module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.device import DramModule
from repro.errors import ConfigurationError


@dataclass
class PidGains:
    """Proportional / integral / derivative gains of the loop."""

    kp: float = 0.35
    ki: float = 0.06
    kd: float = 0.10


class TemperatureController:
    """PID-regulated heater attached to one module.

    Parameters
    ----------
    module:
        The module whose ``temperature_c`` the controller drives.
    ambient_c:
        Ambient temperature the plant relaxes towards with the heater off.
    step_s:
        Control-loop period in seconds.
    tolerance_c:
        The paper's +/- 0.1 C holding band.
    """

    #: Plant time constant (s): how fast the module tracks heater power.
    PLANT_TAU_S = 30.0
    #: Heater effectiveness: degrees C per unit of control output.
    HEATER_GAIN_C = 60.0

    def __init__(self, module: DramModule, ambient_c: float = 25.0,
                 step_s: float = 1.0, tolerance_c: float = 0.1,
                 gains: PidGains = PidGains()) -> None:
        if step_s <= 0:
            raise ConfigurationError("control period must be positive")
        self._module = module
        self._ambient = ambient_c
        self._step = step_s
        self._tolerance = tolerance_c
        self._gains = gains
        self._setpoint = module.temperature_c
        self._integral = 0.0
        self._previous_error = 0.0
        module.temperature_c = ambient_c

    def set_target(self, temperature_c: float) -> None:
        """Change the setpoint (resets the integral term)."""
        if temperature_c < self._ambient:
            raise ConfigurationError(
                f"heater-only rig cannot cool below ambient "
                f"({self._ambient} C); requested {temperature_c} C")
        self._setpoint = temperature_c
        self._integral = 0.0

    def step(self) -> float:
        """Advance the loop by one period; returns the new temperature."""
        current = self._module.temperature_c
        error = self._setpoint - current
        self._integral += error * self._step
        derivative = (error - self._previous_error) / self._step
        self._previous_error = error
        g = self._gains
        control = g.kp * error + g.ki * self._integral + g.kd * derivative
        control = min(max(control, 0.0), 1.0)  # heater power is one-sided
        # First-order plant update.
        drive = self._ambient + self.HEATER_GAIN_C * control
        alpha = self._step / self.PLANT_TAU_S
        new_temperature = current + alpha * (drive - current)
        self._module.temperature_c = new_temperature
        return new_temperature

    def settle(self, max_steps: int = 5000, hold_steps: int = 20) -> int:
        """Run until the temperature holds within tolerance.

        Returns the number of steps taken; raises if the loop cannot
        settle within ``max_steps`` (a mis-tuned controller is a bug we
        want loud).
        """
        consecutive = 0
        for step_index in range(1, max_steps + 1):
            temperature = self.step()
            if abs(temperature - self._setpoint) <= self._tolerance:
                consecutive += 1
                if consecutive >= hold_steps:
                    return step_index
            else:
                consecutive = 0
        raise ConfigurationError(
            f"temperature loop failed to settle at {self._setpoint} C "
            f"within {max_steps} steps")
