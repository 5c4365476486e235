"""Symbolic circuit parameters: free angles bound after compilation.

A :class:`Parameter` is a named symbolic angle usable anywhere a gate angle
goes; arithmetic on parameters builds linear
:class:`ParameterExpression` objects (``2.0 * gamma + 0.1``), which is the
closure the circuit library needs (QAOA cost angles are ``2·w·γ``, the
Hartree-Fock Givens decomposition emits ``±θ``).  A gate whose angle is
symbolic is represented by a :class:`ParametricGate`: a named factory from
:data:`repro.circuits.gates.GATE_FACTORIES` whose parameter slots hold
expressions instead of floats.

The load-bearing property of this module is the **structure/value split**:

* :meth:`ParametricGate.structure_token` depends only on the gate name and
  the *expressions* (names and coefficients) — never on bound values or
  parameter-shift offsets — so every binding of one parametric circuit
  shares a structural fingerprint, which is what the session's plan cache
  keys on (see :meth:`repro.circuits.circuit.Circuit.structural_fingerprint`).
* :meth:`ParametricGate.bind` and :func:`substitute` perform partial
  evaluation only — the original expressions are retained, so a bound gate
  still *is* parametric.  The optimizing passes treat every parametric gate
  (bound or not) as an opaque barrier, which makes
  ``passes(substitute(c, p))`` and ``substitute(passes(c), p)`` agree
  instruction-for-instruction; that exact commutation is the foundation of
  the bind-equivalence oracle's bit-identity guarantee.

Example::

    >>> from repro.circuits.parameters import (
    ...     Parameter, circuit_parameters, substitute)
    >>> from repro.circuits.circuit import Circuit
    >>> theta = Parameter("theta")
    >>> circuit = Circuit(1).rx(2.0 * theta, 0)
    >>> sorted(circuit_parameters(circuit))
    ['theta']
    >>> bound = substitute(circuit, {"theta": 0.25})
    >>> bound[0].operation.params
    (0.5,)
"""

from __future__ import annotations

import numbers
from typing import Dict, FrozenSet, Mapping, Tuple, Union

import numpy as np

from repro.circuits import gates as glib
from repro.utils.validation import ValidationError

__all__ = [
    "GATE_GENERATORS",
    "Parameter",
    "ParameterExpression",
    "ParametricGate",
    "UnboundParameterError",
    "circuit_parameters",
    "gate_derivative",
    "is_parametric",
    "substitute",
]


class UnboundParameterError(ValidationError):
    """A concrete value (matrix, inverse, …) was requested from an unbound symbol."""


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.diag([1, -1]).astype(complex)

#: Generator ``G`` of every single-angle gate whose matrix is exactly
#: ``U(θ) = exp(−iθG)``, so ``dU/dθ = −i·G·U(θ)`` with no global-phase term.
#: Each ``G`` has two eigenvalues a gap of 1 apart, which also makes the
#: two-term parameter-shift rule exact; the key set is
#: :data:`repro.api.executable.PARAMETER_SHIFT_GATES`.
GATE_GENERATORS: Mapping[str, np.ndarray] = {
    "rx": _PAULI_X / 2,
    "ry": _PAULI_Y / 2,
    "rz": _PAULI_Z / 2,
    "p": np.diag([0, -1]).astype(complex),
    "cp": np.diag([0, 0, 0, -1]).astype(complex),
    "zzphase": np.kron(_PAULI_Z, _PAULI_Z) / 2,
    "xxphase": np.kron(_PAULI_X, _PAULI_X) / 2,
}


def gate_derivative(gate) -> np.ndarray:
    """``dU/dθ = −i·G·U`` of a bound single-angle gate listed in :data:`GATE_GENERATORS`.

    >>> from repro.circuits.gates import Rz
    >>> bool(np.allclose(gate_derivative(Rz(0.0)), np.diag([-0.5j, 0.5j])))
    True
    """
    generator = GATE_GENERATORS.get(gate.name)
    if generator is None:
        raise ValidationError(
            f"gate {gate.name!r} has no generator (supported: {sorted(GATE_GENERATORS)})"
        )
    return -1j * (generator @ gate.matrix)


#: Anything accepted in a parametric gate's parameter slot.
ParamLike = Union[float, "Parameter", "ParameterExpression"]


class Parameter:
    """A named symbolic angle (the leaf of :class:`ParameterExpression`).

    >>> gamma = Parameter("gamma")
    >>> (2.0 * gamma + 0.5).evaluate({"gamma": 0.25})
    1.0
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name.isidentifier():
            raise ValidationError(
                f"parameter name must be a valid identifier, got {name!r}"
            )
        self.name = name

    # -- expression protocol (delegates to the single-term expression) ----
    def _expr(self) -> "ParameterExpression":
        return ParameterExpression(((self.name, 1.0),), 0.0)

    @property
    def parameters(self) -> FrozenSet[str]:
        """The free parameter names (just this one)."""
        return frozenset((self.name,))

    def evaluate(self, binding: Mapping[str, float]) -> float:
        """Resolve this parameter from ``binding`` (see :meth:`ParameterExpression.evaluate`)."""
        return self._expr().evaluate(binding)

    def structure_key(self) -> str:
        """Canonical structural token (see :meth:`ParameterExpression.structure_key`)."""
        return self._expr().structure_key()

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-self._expr()) + other

    def __mul__(self, other):
        return self._expr() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._expr() / other

    def __neg__(self):
        return -self._expr()

    def __eq__(self, other) -> bool:
        if isinstance(other, Parameter):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Parameter", self.name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _as_expression(value: ParamLike) -> "ParameterExpression":
    if isinstance(value, ParameterExpression):
        return value
    if isinstance(value, Parameter):
        return value._expr()
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return ParameterExpression((), float(value))
    raise ValidationError(f"cannot use {value!r} in a parameter expression")


class ParameterExpression:
    """A linear combination of parameters: ``Σ coeff·name + const``.

    Closed under addition, subtraction, negation and scaling by real
    constants — the operations the circuit library needs.  Products of two
    symbols are rejected (the parameter-shift rule below assumes linearity).

    >>> gamma, beta = Parameter("gamma"), Parameter("beta")
    >>> expr = 2.0 * gamma - beta / 2 + 1.0
    >>> sorted(expr.parameters)
    ['beta', 'gamma']
    >>> expr.evaluate({"gamma": 0.5, "beta": 2.0})
    1.0
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms, const: float = 0.0) -> None:
        collected: Dict[str, float] = {}
        for name, coeff in terms:
            coeff = float(coeff)
            if coeff != 0.0:
                collected[name] = collected.get(name, 0.0) + coeff
        #: Canonical (name, coefficient) pairs, sorted by name, zeros dropped.
        self.terms: Tuple[Tuple[str, float], ...] = tuple(
            (name, collected[name])
            for name in sorted(collected)
            if collected[name] != 0.0
        )
        self.const = float(const)

    @property
    def parameters(self) -> FrozenSet[str]:
        """Names of the free parameters this expression depends on."""
        return frozenset(name for name, _ in self.terms)

    def coefficient(self, name: str) -> float:
        """The linear coefficient of ``name`` (0.0 when absent)."""
        for term_name, coeff in self.terms:
            if term_name == name:
                return coeff
        return 0.0

    def evaluate(self, binding: Mapping[str, float]) -> float:
        """Resolve to a float; raises :class:`UnboundParameterError` on gaps."""
        missing = sorted(name for name, _ in self.terms if name not in binding)
        if missing:
            raise UnboundParameterError(
                f"unbound parameters {missing} (bind them before execution)"
            )
        total = self.const
        for name, coeff in self.terms:
            total += coeff * float(binding[name])
        return float(total)

    def structure_key(self) -> str:
        """Canonical token covering names and exact coefficient reprs.

        Two expressions share a key iff they are the same linear form, so
        structural fingerprints distinguish ``2·γ`` from ``γ`` while staying
        independent of any bound values.
        """
        parts = [f"{coeff!r}*{name}" for name, coeff in self.terms]
        parts.append(repr(self.const))
        return "+".join(parts)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _as_expression(other)
        return ParameterExpression(
            self.terms + other.terms, self.const + other.const
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_expression(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ParameterExpression(
            tuple((name, -coeff) for name, coeff in self.terms), -self.const
        )

    def __mul__(self, other):
        if isinstance(other, (Parameter, ParameterExpression)):
            raise ValidationError(
                "parameter expressions are linear; cannot multiply two symbols"
            )
        factor = float(other)
        return ParameterExpression(
            tuple((name, coeff * factor) for name, coeff in self.terms),
            self.const * factor,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Parameter, ParameterExpression)):
            raise ValidationError("cannot divide by a symbolic parameter")
        return self * (1.0 / float(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, (Parameter, ParameterExpression)):
            other = _as_expression(other)
            return self.terms == other.terms and self.const == other.const
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms, self.const))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParameterExpression({self.structure_key()})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.structure_key()


class ParametricGate:
    """A gate factory applied to symbolic parameter slots.

    ``ParametricGate("rz", (2.0 * gamma,))`` behaves like the gate
    ``Rz(2·γ)`` whose angle is decided later: :meth:`bind` partially
    evaluates (the expressions are kept, so the gate stays parametric and
    keeps its structural identity), and once every parameter is bound the
    duck-typed gate interface (``matrix``, ``params``, ``tensor``,
    ``inverse``) delegates to the concrete factory-built gate.

    ``offsets`` are post-evaluation additive angle shifts, one per slot —
    the parameter-shift gradient's ±π/2 evaluations.  They participate in
    the *value* (matrix, exact fingerprint) but not in the structure token,
    so every shifted evaluation of one circuit replays the same compiled
    plan.
    """

    #: Class marker checked (via ``getattr``) by the circuit layer and the
    #: passes, so parametric gates are recognised without importing this
    #: module and — crucially — without touching the ``matrix`` property,
    #: which raises on unbound gates.
    is_parametric_gate = True

    __slots__ = ("name", "num_qubits", "_factory", "_params", "binding", "offsets", "_bound_gate")

    def __init__(
        self,
        name: str,
        params,
        binding: Mapping[str, float] | None = None,
        offsets=None,
    ) -> None:
        factory = glib.GATE_FACTORIES.get(name)
        if factory is None:
            raise ValidationError(
                f"unknown parametric gate {name!r} (not in GATE_FACTORIES)"
            )
        params = tuple(
            p if isinstance(p, ParameterExpression) else _as_expression(p)
            for p in params
        )
        if not params:
            raise ValidationError(f"parametric gate {name!r} needs at least one parameter")
        try:
            probe = factory(*(0.0,) * len(params))
        except TypeError as exc:
            raise ValidationError(
                f"gate {name!r} does not take {len(params)} parameter(s)"
            ) from exc
        self.name = name
        self.num_qubits = probe.num_qubits
        self._factory = factory
        self._params = params
        relevant = frozenset().union(*(p.parameters for p in params))
        self.binding = {
            str(key): float(value)
            for key, value in dict(binding or {}).items()
            if str(key) in relevant
        }
        if offsets is None:
            offsets = (0.0,) * len(params)
        offsets = tuple(float(o) for o in offsets)
        if len(offsets) != len(params):
            raise ValidationError(
                f"gate {name!r}: {len(offsets)} offsets for {len(params)} parameters"
            )
        self.offsets = offsets
        self._bound_gate = None

    # -- structure / value split -----------------------------------------
    @property
    def expressions(self) -> Tuple[ParameterExpression, ...]:
        """The raw parameter expressions (independent of any binding)."""
        return self._params

    @property
    def free_parameters(self) -> FrozenSet[str]:
        """Parameter names still unbound on this gate."""
        names = frozenset().union(*(p.parameters for p in self._params))
        return names - frozenset(self.binding)

    @property
    def is_bound(self) -> bool:
        """True when every parameter slot can be evaluated to a float."""
        return not self.free_parameters

    def structure_token(self) -> str:
        """Value-independent identity: gate name + expression structure.

        Stable across :meth:`bind` and :meth:`shifted`, so every binding
        (and every gradient shift) of a circuit shares one structural
        fingerprint and therefore one compiled plan.
        """
        parts = [self.name] + [p.structure_key() for p in self._params]
        return "|".join(parts)

    def value_token(self) -> str:
        """Exact-value identity: bound values and offsets (for fingerprints)."""
        bound = ",".join(f"{k}={self.binding[k]!r}" for k in sorted(self.binding))
        return f"bind[{bound}]offsets{self.offsets!r}"

    # -- binding ----------------------------------------------------------
    def bind(self, binding: Mapping[str, float]) -> "ParametricGate":
        """Return a copy with ``binding`` merged in (partial binding is fine).

        Names irrelevant to this gate are ignored — :func:`substitute`
        passes one full mapping to every instruction.
        """
        merged = dict(self.binding)
        for key, value in dict(binding).items():
            merged[str(key.name if isinstance(key, Parameter) else key)] = float(value)
        return ParametricGate(self.name, self._params, binding=merged, offsets=self.offsets)

    def shifted(self, slot: int, delta: float) -> "ParametricGate":
        """Return a copy with slot ``slot``'s evaluated angle shifted by ``delta``."""
        if not 0 <= slot < len(self._params):
            raise ValidationError(
                f"gate {self.name!r} has {len(self._params)} parameter slots, got slot {slot}"
            )
        offsets = list(self.offsets)
        offsets[slot] += float(delta)
        return ParametricGate(
            self.name, self._params, binding=self.binding, offsets=tuple(offsets)
        )

    # -- bound-gate delegation -------------------------------------------
    def bound_gate(self) -> glib.Gate:
        """The concrete :class:`~repro.circuits.gates.Gate` this binding selects."""
        if self._bound_gate is None:
            free = sorted(self.free_parameters)
            if free:
                raise UnboundParameterError(
                    f"gate {self.name!r} has unbound parameters {free}; "
                    "bind them (Executable.bind / substitute) before execution"
                )
            values = [
                p.evaluate(self.binding) + offset
                for p, offset in zip(self._params, self.offsets)
            ]
            self._bound_gate = self._factory(*values)
        return self._bound_gate

    @property
    def matrix(self) -> np.ndarray:
        """Dense unitary of the bound gate (raises while parameters are free)."""
        return self.bound_gate().matrix

    @property
    def params(self) -> Tuple[ParamLike, ...]:
        """Evaluated angles when bound; the raw expressions otherwise."""
        if self.is_bound:
            return self.bound_gate().params
        return self._params

    def tensor(self) -> np.ndarray:
        """Rank-``2k`` tensor view of the bound matrix."""
        return self.bound_gate().tensor()

    def inverse(self) -> glib.Gate:
        """Inverse of the bound gate (a concrete :class:`Gate`)."""
        return self.bound_gate().inverse()

    def conjugate(self) -> glib.Gate:
        """Entry-wise conjugate of the bound gate."""
        return self.bound_gate().conjugate()

    @property
    def dim(self) -> int:
        """Hilbert-space dimension the gate acts on."""
        return 2**self.num_qubits

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(str(p) for p in self._params)
        suffix = "" if not self.binding else f"@{self.binding}"
        return f"{self.name}({args}){suffix}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ParametricGate {self}>"


# ---------------------------------------------------------------------------
# Circuit-level helpers
# ---------------------------------------------------------------------------

def is_parametric(circuit) -> bool:
    """True when any instruction carries a :class:`ParametricGate` (bound or not)."""
    return any(
        getattr(inst.operation, "is_parametric_gate", False) for inst in circuit
    )


def circuit_parameters(circuit) -> FrozenSet[str]:
    """The free (unbound) parameter names of ``circuit``."""
    names: set = set()
    for inst in circuit:
        if getattr(inst.operation, "is_parametric_gate", False):
            names |= inst.operation.free_parameters
    return frozenset(names)


def normalize_binding(binding: Mapping) -> Dict[str, float]:
    """Normalise a ``{Parameter|str: value}`` mapping to ``{name: float}``."""
    normalized: Dict[str, float] = {}
    for key, value in dict(binding).items():
        name = key.name if isinstance(key, Parameter) else str(key)
        normalized[name] = float(value)
    return normalized


def substitute(circuit, binding: Mapping):
    """Return a copy of ``circuit`` with every free parameter bound.

    The result's parametric gates are *bound*, not erased: expressions are
    retained so the substituted circuit keeps the structural fingerprint of
    the original — the property the plan cache and the bind-equivalence
    oracle rely on.  Raises :class:`UnboundParameterError` when ``binding``
    misses a free parameter; extra names are ignored.
    """
    from repro.circuits.circuit import Circuit

    normalized = normalize_binding(binding)
    missing = sorted(circuit_parameters(circuit) - frozenset(normalized))
    if missing:
        raise UnboundParameterError(
            f"substitute() is missing values for parameters {missing}"
        )
    new = Circuit(circuit.num_qubits, name=circuit.name)
    for inst in circuit:
        operation = inst.operation
        if getattr(operation, "is_parametric_gate", False):
            operation = operation.bind(normalized)
        new.append(operation, inst.qubits)
    return new
