"""Circuit intermediate representation.

A :class:`Circuit` is an ordered list of :class:`Instruction` objects.  Each
instruction applies an *operation* to a tuple of qubits.  Operations are
either unitary gates (:class:`repro.circuits.gates.Gate`) or Kraus noise
channels (:class:`repro.noise.kraus.KrausChannel`); the circuit only relies on
the small duck-typed interface both expose (``name``, ``num_qubits`` and
either ``matrix`` or ``kraus_operators``).

This mirrors the paper's definition of a noisy circuit
``E_N = E_d ∘ … ∘ E_1`` where each ``E_i`` is a noiseless gate or a noise
channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.circuits import gates as glib
from repro.circuits.gates import Gate
from repro.circuits.parameters import Parameter, ParameterExpression, ParametricGate
from repro.utils.linalg import embed_operator
from repro.utils.validation import ValidationError, check_qubit_index

__all__ = ["Instruction", "Circuit"]


def _is_gate(operation) -> bool:
    """Return True when ``operation`` is a unitary gate (has a ``matrix``).

    Parametric gates are recognised by their class marker *before* the
    ``matrix`` probe: an unbound :class:`~repro.circuits.parameters.
    ParametricGate` raises on matrix access (not ``AttributeError``, so
    ``hasattr`` would propagate it), and a gate's gate-ness must not depend
    on whether its angles are bound yet.
    """
    if getattr(operation, "is_parametric_gate", False):
        return True
    return hasattr(operation, "matrix") and not hasattr(operation, "kraus_operators")


def _symbolic(theta) -> bool:
    """True when an angle argument is a parameter or parameter expression."""
    return isinstance(theta, (Parameter, ParameterExpression))


def _is_channel(operation) -> bool:
    """Return True when ``operation`` is a Kraus channel."""
    return hasattr(operation, "kraus_operators")


@dataclass(frozen=True)
class Instruction:
    """A single operation applied to specific qubits of a circuit."""

    operation: object
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(set(qubits)) != len(qubits):
            raise ValidationError(f"instruction acts twice on the same qubit: {qubits}")
        expected = getattr(self.operation, "num_qubits", None)
        if expected is None:
            raise ValidationError(
                f"operation {self.operation!r} does not expose num_qubits"
            )
        if expected != len(qubits):
            raise ValidationError(
                f"operation {self.operation} acts on {expected} qubits, got {len(qubits)} indices"
            )
        if not (_is_gate(self.operation) or _is_channel(self.operation)):
            raise ValidationError(
                f"operation {self.operation!r} is neither a gate nor a Kraus channel"
            )

    # -- predicates ------------------------------------------------------
    @property
    def is_gate(self) -> bool:
        """True when this instruction is a unitary gate."""
        return _is_gate(self.operation)

    @property
    def is_noise(self) -> bool:
        """True when this instruction is a (generally non-unitary) Kraus channel."""
        return _is_channel(self.operation)

    @property
    def name(self) -> str:
        """Name of the underlying operation."""
        return getattr(self.operation, "name", type(self.operation).__name__)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "noise" if self.is_noise else "gate"
        return f"{kind} {self.operation} on {self.qubits}"


class Circuit:
    """An ordered sequence of gate and noise instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValidationError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = str(name)
        self._instructions: List[Instruction] = []
        #: Memoized :meth:`_digest` results, keyed by ``structural``.  Only
        #: append/insert/compose change a circuit's instructions in place,
        #: and each of them drops the memo; copies and slices start empty.
        self._digests: Dict[bool, str] = {}

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sub = Circuit(self.num_qubits, name=f"{self.name}[{index.start}:{index.stop}]")
            sub._instructions = list(self._instructions[index])
            return sub
        return self._instructions[index]

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """Immutable view of the instruction list."""
        return tuple(self._instructions)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(self, operation, qubits: Sequence[int] | int) -> "Circuit":
        """Append ``operation`` acting on ``qubits`` and return ``self`` (chainable)."""
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            check_qubit_index(q, self.num_qubits)
        self._instructions.append(Instruction(operation, qubits))
        self._digests = {}
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "Circuit":
        """Append every instruction from ``instructions``."""
        for instruction in instructions:
            self.append(instruction.operation, instruction.qubits)
        return self

    def insert(self, index: int, operation, qubits: Sequence[int] | int) -> "Circuit":
        """Insert an operation at position ``index``."""
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            check_qubit_index(q, self.num_qubits)
        self._instructions.insert(index, Instruction(operation, qubits))
        self._digests = {}
        return self

    # Convenience single-gate builders -----------------------------------
    def h(self, qubit: int) -> "Circuit":
        """Append a Hadamard gate."""
        return self.append(glib.H(), qubit)

    def x(self, qubit: int) -> "Circuit":
        """Append a Pauli-X gate."""
        return self.append(glib.X(), qubit)

    def y(self, qubit: int) -> "Circuit":
        """Append a Pauli-Y gate."""
        return self.append(glib.Y(), qubit)

    def z(self, qubit: int) -> "Circuit":
        """Append a Pauli-Z gate."""
        return self.append(glib.Z(), qubit)

    def s(self, qubit: int) -> "Circuit":
        """Append an S gate."""
        return self.append(glib.S(), qubit)

    def t(self, qubit: int) -> "Circuit":
        """Append a T gate."""
        return self.append(glib.T(), qubit)

    def rx(self, theta: float, qubit: int) -> "Circuit":
        """Append an Rx rotation (``theta`` may be a symbolic parameter)."""
        if _symbolic(theta):
            return self.append(ParametricGate("rx", (theta,)), qubit)
        return self.append(glib.Rx(theta), qubit)

    def ry(self, theta: float, qubit: int) -> "Circuit":
        """Append an Ry rotation (``theta`` may be a symbolic parameter)."""
        if _symbolic(theta):
            return self.append(ParametricGate("ry", (theta,)), qubit)
        return self.append(glib.Ry(theta), qubit)

    def rz(self, theta: float, qubit: int) -> "Circuit":
        """Append an Rz rotation (``theta`` may be a symbolic parameter)."""
        if _symbolic(theta):
            return self.append(ParametricGate("rz", (theta,)), qubit)
        return self.append(glib.Rz(theta), qubit)

    def cx(self, control: int, target: int) -> "Circuit":
        """Append a CNOT gate."""
        return self.append(glib.CX(), (control, target))

    def cz(self, qubit_a: int, qubit_b: int) -> "Circuit":
        """Append a CZ gate."""
        return self.append(glib.CZ(), (qubit_a, qubit_b))

    def swap(self, qubit_a: int, qubit_b: int) -> "Circuit":
        """Append a SWAP gate."""
        return self.append(glib.SWAP(), (qubit_a, qubit_b))

    def zz(self, theta: float, qubit_a: int, qubit_b: int) -> "Circuit":
        """Append a ZZ interaction (the QAOA cost gate; ``theta`` may be symbolic)."""
        if _symbolic(theta):
            return self.append(ParametricGate("zzphase", (theta,)), (qubit_a, qubit_b))
        return self.append(glib.ZZPhase(theta), (qubit_a, qubit_b))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def gate_instructions(self) -> List[Instruction]:
        """All unitary-gate instructions, in order."""
        return [inst for inst in self._instructions if inst.is_gate]

    @property
    def noise_instructions(self) -> List[Instruction]:
        """All noise-channel instructions, in order."""
        return [inst for inst in self._instructions if inst.is_noise]

    def gate_count(self) -> int:
        """Number of unitary-gate instructions."""
        return len(self.gate_instructions)

    def noise_count(self) -> int:
        """Number of noise-channel instructions."""
        return len(self.noise_instructions)

    def noise_positions(self) -> List[int]:
        """Instruction indices at which noise channels occur."""
        return [i for i, inst in enumerate(self._instructions) if inst.is_noise]

    def is_noiseless(self) -> bool:
        """True when the circuit contains no noise channels."""
        return self.noise_count() == 0

    def depth(self) -> int:
        """Circuit depth counted over gate instructions (greedy moment packing).

        Noise channels are ignored for the depth count, matching the way
        circuit depth is reported in the paper's Table II (the noise channels
        are inserted after gates and do not add logical depth).
        """
        frontier = [0] * self.num_qubits
        depth = 0
        for inst in self.gate_instructions:
            level = max(frontier[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                frontier[q] = level
            depth = max(depth, level)
        return depth

    def moments(self) -> List[List[Instruction]]:
        """Group gate instructions into parallel moments (greedy left packing)."""
        frontier = [0] * self.num_qubits
        moments: List[List[Instruction]] = []
        for inst in self.gate_instructions:
            level = max(frontier[q] for q in inst.qubits)
            if level == len(moments):
                moments.append([])
            moments[level].append(inst)
            for q in inst.qubits:
                frontier[q] = level + 1
        return moments

    def _digest(self, structural: bool) -> str:
        """Shared fingerprint machinery (see :meth:`fingerprint`), memoized per mode.

        Literal gate and noise instructions contribute identical bytes in
        both modes, so for circuits without parametric gates the structural
        and exact fingerprints coincide (pre-existing plan-cache keys stay
        stable).  A parametric instruction contributes its structure token
        (gate name + expression shape) in both modes, plus its bound values
        and parameter-shift offsets in exact mode only.
        """
        memo = self._digests
        cached = memo.get(structural)
        if cached is None:
            cached = memo[structural] = self._hash(structural)
        return cached

    def _hash(self, structural: bool) -> str:
        digest = hashlib.sha256()
        digest.update(str(self.num_qubits).encode())
        for inst in self._instructions:
            operation = inst.operation
            if getattr(operation, "is_parametric_gate", False):
                digest.update(b"\x1fpgate")
                digest.update(operation.structure_token().encode())
                digest.update(repr(inst.qubits).encode())
                if not structural:
                    digest.update(operation.value_token().encode())
                continue
            digest.update(b"\x1fnoise" if inst.is_noise else b"\x1fgate")
            digest.update(inst.name.encode())
            digest.update(repr(inst.qubits).encode())
            if inst.is_noise:
                for kraus in operation.kraus_operators:
                    digest.update(
                        np.ascontiguousarray(np.asarray(kraus, dtype=complex)).tobytes()
                    )
            else:
                digest.update(
                    np.ascontiguousarray(np.asarray(operation.matrix, dtype=complex)).tobytes()
                )
        return digest.hexdigest()[:16]

    def fingerprint(self) -> str:
        """Stable content hash of the circuit's exact structure.

        Covers the qubit count and, per instruction, the operation kind,
        name, qubit tuple and the exact tensor bytes (gate matrix or Kraus
        operators), so two circuits share a fingerprint iff they describe the
        same computation element-for-element.  Parametric gates contribute
        their expression structure plus their bound values and offsets, so
        two bindings of one circuit fingerprint differently here but share a
        :meth:`structural_fingerprint`.
        """
        return self._digest(structural=False)

    def structural_fingerprint(self) -> str:
        """Value-independent fingerprint: parametric angles count as free slots.

        Identical to :meth:`fingerprint` for circuits without parametric
        gates; for parametric circuits every binding (and every
        parameter-shift offset) shares one structural fingerprint.  This is
        the identity the session layer's compiled-plan cache keys on: a plan
        recorded for one binding replays for any other binding of the same
        structure (see :func:`repro.api.executable.plan_cache_key`).
        """
        return self._digest(structural=True)

    def count_ops(self) -> dict:
        """Return a histogram ``{operation name: count}``."""
        counts: dict = {}
        for inst in self._instructions:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        """Return a shallow copy (instructions are immutable, so this is safe)."""
        new = Circuit(self.num_qubits, name=name or self.name)
        new._instructions = list(self._instructions)
        return new

    def compose(self, other: "Circuit") -> "Circuit":
        """Return a new circuit running ``self`` first and then ``other``."""
        if other.num_qubits != self.num_qubits:
            raise ValidationError(
                f"cannot compose circuits on {self.num_qubits} and {other.num_qubits} qubits"
            )
        new = self.copy(name=f"{self.name}+{other.name}")
        new._instructions.extend(other._instructions)
        new._digests = {}
        return new

    def inverse(self) -> "Circuit":
        """Return the inverse circuit.  Only defined for noiseless circuits."""
        if not self.is_noiseless():
            raise ValidationError("cannot invert a circuit containing noise channels")
        new = Circuit(self.num_qubits, name=f"{self.name}_inv")
        for inst in reversed(self._instructions):
            new.append(inst.operation.inverse(), inst.qubits)
        return new

    def without_noise(self) -> "Circuit":
        """Return a copy with all noise channels removed (the ideal circuit)."""
        new = Circuit(self.num_qubits, name=f"{self.name}_ideal")
        for inst in self._instructions:
            if inst.is_gate:
                new.append(inst.operation, inst.qubits)
        return new

    def unitary(self) -> np.ndarray:
        """Return the dense unitary of a noiseless circuit (small qubit counts only)."""
        if not self.is_noiseless():
            raise ValidationError("a noisy circuit has no single unitary representation")
        if self.num_qubits > 12:
            raise ValidationError(
                "dense unitary construction is limited to 12 qubits "
                f"(requested {self.num_qubits})"
            )
        result = np.eye(2**self.num_qubits, dtype=complex)
        for inst in self._instructions:
            full = embed_operator(inst.operation.matrix, inst.qubits, self.num_qubits)
            result = full @ result
        return result

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line summary used by the benchmark harness tables."""
        return (
            f"{self.name}: qubits={self.num_qubits} gates={self.gate_count()} "
            f"depth={self.depth()} noises={self.noise_count()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Circuit {self.summary()}>"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [self.summary()]
        for i, inst in enumerate(self._instructions):
            lines.append(f"  [{i:>3}] {inst}")
        return "\n".join(lines)
