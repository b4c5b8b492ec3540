"""Fixed-step backward-Euler transient solver on top of the MNA stamps.

Backward Euler turns each capacitor into a companion model for step ``h``:
a conductance ``C / h`` in parallel with a current source ``(C / h) *
v_prev`` (injected so as to reproduce the capacitor's previous-step
voltage).  Each step is then one DC solve.  BE is unconditionally stable and
slightly dissipative -- exactly what we want for stiff bit-line discharge
circuits where accuracy of the crossing *time* is verified against analytic
RC solutions in the tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.mna import Circuit, assemble_matrix, assemble_rhs

__all__ = ["TransientResult", "simulate"]


@dataclasses.dataclass
class TransientResult:
    """Sampled waveforms of one transient run.

    Attributes:
        circuit: the simulated circuit (for node-name lookups).
        time: shape (n,) sample times, seconds.
        voltages: shape (n, node_count) node voltages, volts.
        source_currents: shape (n, n_vsources); current into each voltage
            source's positive terminal (negative while delivering power).
        source_energy: shape (n_vsources,); total energy *delivered* by each
            source over the run, joules.
    """

    circuit: Circuit
    time: np.ndarray
    voltages: np.ndarray
    source_currents: np.ndarray
    source_energy: np.ndarray

    def v(self, node_name: str) -> np.ndarray:
        """Waveform of a named node."""
        return self.voltages[:, self.circuit.node(node_name)]

    def crossing_time(
        self, node_name: str, level: float, falling: bool = True
    ) -> float | None:
        """First time the node crosses ``level``, linearly interpolated.

        Args:
            node_name: probe node.
            level: threshold voltage.
            falling: look for a downward crossing when True, upward when
                False.

        Returns:
            The interpolated crossing time in seconds, or None if the node
            never crosses during the run.
        """
        wave = self.v(node_name)
        if falling:
            hits = np.nonzero((wave[:-1] > level) & (wave[1:] <= level))[0]
        else:
            hits = np.nonzero((wave[:-1] < level) & (wave[1:] >= level))[0]
        if hits.size == 0:
            return None
        k = int(hits[0])
        v0, v1 = wave[k], wave[k + 1]
        t0, t1 = self.time[k], self.time[k + 1]
        if v1 == v0:
            return float(t0)
        frac = (level - v0) / (v1 - v0)
        return float(t0 + frac * (t1 - t0))

    def energy_delivered(self, source_name: str) -> float:
        """Total energy delivered by the named voltage source, in joules."""
        for k, source in enumerate(self.circuit.vsources):
            if source.name == source_name:
                return float(self.source_energy[k])
        raise KeyError(f"no voltage source named {source_name!r}")


def simulate(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
) -> TransientResult:
    """Run a fixed-step backward-Euler transient analysis.

    Initial node voltages are derived from capacitor initial-condition
    voltages where given (capacitors to ground force their node; others
    start from the t=0 DC solve with ICs enforced via large companion
    injections on the first step).

    Args:
        circuit: the circuit to simulate.
        t_stop: end time in seconds.
        dt: fixed step in seconds.
        t_start: start time (elements' time functions see absolute time).

    Returns:
        Sampled :class:`TransientResult` including the initial point.
    """
    # Imported here: only the transient studies need SciPy, and it is
    # slow to load.
    import scipy.linalg

    if dt <= 0 or t_stop <= t_start:
        raise ValueError("need dt > 0 and t_stop > t_start")
    steps = int(round((t_stop - t_start) / dt))
    times = t_start + dt * np.arange(steps + 1)

    n_nodes = circuit.node_count
    n = n_nodes - 1
    n_src = len(circuit.vsources)
    voltages = np.zeros((steps + 1, n_nodes))
    currents = np.zeros((steps + 1, n_src))
    energy = np.zeros(n_src)

    # Capacitor voltages start from their declared initial conditions.
    cap_v = np.array([c.initial_voltage_volts
                      for c in circuit.capacitors])
    cap_g = np.array([c.capacitance / dt for c in circuit.capacitors])

    # The MNA matrix changes only when a switch toggles or a time-varying
    # resistor moves; factor it once per such epoch and reuse the LU
    # factors for the (cheap) per-step solves.
    lu_cache: dict[tuple, tuple] = {}

    def solve_at(t: float, companion_g: np.ndarray) -> np.ndarray:
        pairs = circuit.conductance_pairs(t)
        key = tuple(g for _, _, g in pairs) + (companion_g[0] if len(companion_g) else 0.0,)
        if key not in lu_cache:
            all_pairs = pairs + [
                (cap.node_a, cap.node_b, g)
                for cap, g in zip(circuit.capacitors, companion_g)
            ]
            matrix = assemble_matrix(circuit, all_pairs)
            lu_cache[key] = scipy.linalg.lu_factor(matrix)
            if len(lu_cache) > 64:  # avoid unbounded growth for chattering gates
                lu_cache.pop(next(iter(lu_cache)))
        injections = [
            (cap.node_b, cap.node_a, g * v_prev)
            for cap, g, v_prev in zip(circuit.capacitors, companion_g, cap_v)
        ]
        z = assemble_rhs(circuit, t, injections)
        return scipy.linalg.lu_solve(lu_cache[key], z)

    # Initial operating point: stamp a very stiff companion (tiny effective
    # dt) so node voltages honour the capacitor initial conditions.
    stiff_g = np.array([c.capacitance / (dt * 1e-6) for c in circuit.capacitors])
    solution = solve_at(times[0], stiff_g)
    voltages[0, 1:] = solution[:n]
    currents[0] = solution[n:]

    source_v = np.array(
        [_source_voltage(circuit, s, times[0]) for s in range(n_src)]
    )
    for k in range(1, steps + 1):
        t = times[k]
        solution = solve_at(t, cap_g)
        voltages[k, 1:] = solution[:n]
        currents[k] = solution[n:]
        # Update capacitor state to the new branch voltages.
        for idx, cap in enumerate(circuit.capacitors):
            cap_v[idx] = voltages[k, cap.node_a] - voltages[k, cap.node_b]
        # Accumulate energy delivered by each source (trapezoidal in power).
        source_v_now = np.array(
            [_source_voltage(circuit, s, t) for s in range(n_src)]
        )
        p_now = -source_v_now * currents[k]
        p_prev = -source_v * currents[k - 1]
        energy += 0.5 * (p_now + p_prev) * dt
        source_v = source_v_now

    return TransientResult(
        circuit=circuit,
        time=times,
        voltages=voltages,
        source_currents=currents,
        source_energy=energy,
    )


def _source_voltage(circuit: Circuit, index: int, t: float) -> float:
    source = circuit.vsources[index]
    value = source.voltage
    return float(value(t)) if callable(value) else float(value)
