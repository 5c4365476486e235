"""Quantum trajectories (Monte-Carlo) noisy simulation.

This is the approximate baseline the paper compares against (their reference
[1], the qsim/Cirq approach): instead of evolving a density matrix, sample a
pure-state *trajectory* by drawing one Kraus operator per noise channel, and
average ``|⟨v|ψ_traj⟩|²`` over many trajectories.

Two backends are provided, matching the paper's Table III:

* the ``"statevector"`` backend ("Traj (MM)") — the trajectory state is a dense
  statevector; Kraus operators are drawn with their exact Born probabilities
  ``p_k = ‖E_k|ψ⟩‖²`` and the state renormalised.
* the ``"tn"`` backend ("Traj (TN)") — each trajectory is evaluated as a single
  tensor-network amplitude contraction.  Exact per-state Kraus probabilities
  are unavailable without extra contractions, so operators are drawn from the
  state-independent distribution ``q_k = tr(E_k† E_k)/d`` and the estimator is
  importance-weighted accordingly (an unbiased estimator of the same
  quantity).

Execution is delegated to the batched engine
(:class:`repro.backends.engine.BatchedTrajectoryEngine`): the statevector
backend evolves whole ``(batch, 2**n)`` arrays of trajectories at once, the
TN backend reuses one cached network topology and contraction order across
samples, and both support chunked multi-process execution (``workers=k``)
with per-chunk seeded RNG streams.  With ``workers=None`` the engine consumes
the RNG stream in exactly the order of the historical per-sample loop, so
results for a given seed are unchanged.

``device=`` selects the :class:`repro.xp.ArrayNamespace` the engine's batched
hot paths execute on (``None``/"cpu" = host numpy); sampling decisions always
run on the host from the same seeded uniforms, so estimates are bit-identical
across devices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.tensornetwork.circuit_to_tn import StateLike
from repro.utils.validation import ValidationError
from repro.xp import declare_seam, get_namespace
from repro.xp import host as np

declare_seam(__name__, mode="dispatch")

__all__ = ["TrajectoryResult", "TrajectorySimulator", "required_samples"]


def required_samples(
    estimate: float,
    standard_error: float,
    pilot_samples: int,
    target_standard_error: float,
    max_samples: int = 1_000_000,
) -> int:
    """Trajectory count needed to reach ``target_standard_error`` after a pilot.

    Scales the pilot's per-sample variance by ``(σ / ε)²``.  When the noise
    rate is small, a short pilot frequently observes *no* noise event at all
    and reports zero variance, which would wrongly suggest that a single
    trajectory suffices; a rare-event variance floor is therefore applied:
    with zero observed events in ``m`` pilot trajectories, the 95%-confidence
    upper bound on the event probability is ``≈ 3/m`` (the rule of three), and
    the per-sample variance is floored accordingly.  Shared by
    :meth:`TrajectorySimulator.samples_for_precision` and
    :meth:`repro.api.Executable.samples_for_precision`, so the pilot math is
    identical however the pilot was run.
    """
    if target_standard_error <= 0:
        raise ValidationError("target_standard_error must be positive")
    measured_variance = (standard_error * np.sqrt(pilot_samples)) ** 2
    event_probability_bound = 3.0 / pilot_samples
    spread = max(estimate * (1.0 - estimate), 1e-4)
    variance_floor = event_probability_bound * spread
    variance = max(measured_variance, variance_floor)
    needed = int(np.ceil(variance / target_standard_error**2))
    return int(min(max(needed, 1), max_samples))


@dataclass(frozen=True)
class TrajectoryResult:
    """Outcome of a trajectory estimation run.

    ``samples`` is None unless the run was made with ``keep_samples=True``:
    retaining a million-element tuple for a million-sample run serves no
    purpose when the estimate and standard error are already exact.
    """

    estimate: float
    standard_error: float
    num_samples: int
    samples: tuple | None = None

    def confidence_interval(self, z: float = 2.576) -> tuple:
        """Return a normal-approximation confidence interval (99% by default)."""
        return (self.estimate - z * self.standard_error, self.estimate + z * self.standard_error)


class TrajectorySimulator:
    """Monte-Carlo sampling of Kraus operators (the quantum-trajectories method)."""

    def __init__(
        self,
        backend: str = "statevector",
        max_intermediate_size: int | None = 2**26,
        optimize: bool = False,
        device: str | None = None,
    ) -> None:
        if backend not in ("statevector", "tn"):
            raise ValidationError(f"unknown trajectory backend {backend!r}")
        self.backend = backend
        self.max_intermediate_size = max_intermediate_size
        #: Execution device for the batched engine (None = host).  Validated
        #: eagerly so an unavailable device fails at construction time.
        self.device = device
        if device is not None:
            get_namespace(device)
        #: Apply the trajectory-safe compiler passes (unitary-noise folding,
        #: gate fusion, boundary pruning — see :mod:`repro.circuits.passes`)
        #: before sampling.  Off by default for this seed-era class: removing
        #: a noise site shifts the per-channel RNG stream, so seeded runs are
        #: only bit-stable against their own optimize setting.  The session
        #: layer (:meth:`repro.api.Session.compile`) applies the same passes
        #: by default with the backend's own profile.
        self.optimize = bool(optimize)

    def _optimized(self, circuit: Circuit, input_state, output_state) -> Circuit:
        if not self.optimize:
            return circuit
        from repro.circuits.passes import run_passes

        n = circuit.num_qubits
        optimized, _ = run_passes(
            circuit,
            input_state="0" * n if input_state is None else input_state,
            output_state="0" * n if output_state is None else output_state,
        )
        return optimized

    # ------------------------------------------------------------------
    def _engine(self):
        # Imported lazily: repro.backends wraps the simulators, so a module-level
        # import here would be circular.
        from repro.backends.engine import BatchedTrajectoryEngine

        return BatchedTrajectoryEngine(
            backend=self.backend,
            max_intermediate_size=self.max_intermediate_size,
            device=self.device,
        )

    def estimate_fidelity(
        self,
        circuit: Circuit,
        num_samples: int,
        input_state: StateLike = None,
        output_state: StateLike = None,
        rng: np.random.Generator | int | None = None,
        keep_samples: bool = False,
        workers: int | None = None,
    ) -> TrajectoryResult:
        """Estimate ``⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`` from ``num_samples`` trajectories.

        ``workers=None`` runs in-process on a single RNG stream; ``workers=k``
        splits the samples into fixed-size seeded blocks executed by ``k``
        processes, with results identical for every ``k``.
        """
        circuit = self._optimized(circuit, input_state, output_state)
        return self._engine().estimate_fidelity(
            circuit,
            num_samples,
            input_state,
            output_state,
            rng=rng,
            keep_samples=keep_samples,
            workers=workers,
        )

    # ------------------------------------------------------------------
    def samples_for_precision(
        self,
        circuit: Circuit,
        target_standard_error: float,
        pilot_samples: int = 64,
        input_state: StateLike = None,
        output_state: StateLike = None,
        rng: np.random.Generator | int | None = None,
        max_samples: int = 1_000_000,
    ) -> int:
        """Estimate how many trajectories reach ``target_standard_error``.

        Runs a short pilot to estimate the per-sample variance and scales by
        ``(σ / ε)²``.  Used by the Table III / Fig. 5 benchmark harnesses to
        match the trajectories baseline to the approximation algorithm's
        accuracy.

        When the noise rate is small, a short pilot frequently observes *no*
        noise event at all and reports zero variance, which would wrongly
        suggest that a single trajectory suffices.  A rare-event variance
        floor is therefore applied: with zero observed events in ``m`` pilot
        trajectories, the 95%-confidence upper bound on the event probability
        is ``≈ 3/m`` (the rule of three), and the per-sample variance is
        floored accordingly.
        """
        if target_standard_error <= 0:
            raise ValidationError("target_standard_error must be positive")
        pilot = self.estimate_fidelity(
            circuit, pilot_samples, input_state, output_state, rng=rng
        )
        return required_samples(
            pilot.estimate,
            pilot.standard_error,
            pilot_samples,
            target_standard_error,
            max_samples=max_samples,
        )
