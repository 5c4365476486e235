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

Both run in the batched engine
(:class:`repro.backends.engine.BatchedTrajectoryEngine`, or
``Session.run(circuit, "trajectories" | "trajectories_tn", ...)``), which
simulates each distinct Kraus history of a batch of trajectories once and
draws them from fixed-size seeded RNG blocks, so estimates are identical for every worker count.
This module holds what the engine and the session layer share: the
:class:`TrajectoryResult` record and the :func:`required_samples` pilot math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError

__all__ = ["TrajectoryResult", "required_samples"]


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
    the per-sample variance is floored accordingly.  Used by
    :meth:`repro.api.Executable.samples_for_precision` to match the
    trajectories baseline to a target accuracy (Table III / Fig. 5).
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
