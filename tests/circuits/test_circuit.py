"""Unit tests for the Circuit IR."""

import numpy as np
import pytest

from repro.circuits import Circuit, Instruction, gates as glib
from repro.noise import depolarizing_channel
from repro.utils.linalg import is_unitary
from repro.utils.validation import ValidationError


@pytest.fixture
def bell_circuit():
    return Circuit(2, name="bell").h(0).cx(0, 1)


class TestInstruction:
    def test_gate_instruction(self):
        inst = Instruction(glib.H(), (0,))
        assert inst.is_gate and not inst.is_noise
        assert inst.name == "h"

    def test_noise_instruction(self):
        inst = Instruction(depolarizing_channel(0.1), (1,))
        assert inst.is_noise and not inst.is_gate

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError):
            Instruction(glib.CX(), (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(ValidationError):
            Instruction(glib.CX(), (1, 1))

    def test_rejects_non_operation(self):
        with pytest.raises(ValidationError):
            Instruction(np.eye(2), (0,))


class TestCircuitBuilding:
    def test_chainable_builders(self, bell_circuit):
        assert len(bell_circuit) == 2
        assert bell_circuit.gate_count() == 2

    def test_append_out_of_range(self):
        with pytest.raises(ValidationError):
            Circuit(2).h(5)

    def test_invalid_num_qubits(self):
        with pytest.raises(ValidationError):
            Circuit(0)

    def test_insert(self, bell_circuit):
        bell_circuit.insert(0, glib.X(), 1)
        assert bell_circuit[0].name == "x"

    def test_extend(self, bell_circuit):
        other = Circuit(2).z(0)
        bell_circuit.extend(other)
        assert bell_circuit[-1].name == "z"

    def test_getitem_slice(self, bell_circuit):
        sub = bell_circuit[0:1]
        assert isinstance(sub, Circuit)
        assert len(sub) == 1

    def test_all_convenience_builders(self):
        c = Circuit(3)
        c.h(0).x(1).y(2).z(0).s(1).t(2)
        c.rx(0.1, 0).ry(0.2, 1).rz(0.3, 2)
        c.cx(0, 1).cz(1, 2).swap(0, 2).zz(0.5, 0, 1)
        assert c.gate_count() == 13


class TestCircuitQueries:
    def test_noise_bookkeeping(self, bell_circuit):
        bell_circuit.append(depolarizing_channel(0.05), 0)
        assert bell_circuit.noise_count() == 1
        assert bell_circuit.gate_count() == 2
        assert bell_circuit.noise_positions() == [2]
        assert not bell_circuit.is_noiseless()

    def test_depth_serial(self):
        c = Circuit(1).h(0).h(0).h(0)
        assert c.depth() == 3

    def test_depth_parallel(self):
        c = Circuit(2).h(0).h(1)
        assert c.depth() == 1

    def test_depth_ignores_noise(self, bell_circuit):
        before = bell_circuit.depth()
        bell_circuit.append(depolarizing_channel(0.05), 0)
        assert bell_circuit.depth() == before

    def test_moments(self):
        c = Circuit(3).h(0).h(1).cx(0, 1).h(2)
        moments = c.moments()
        assert [len(m) for m in moments] == [3, 1]

    def test_count_ops(self, bell_circuit):
        counts = bell_circuit.count_ops()
        assert counts == {"h": 1, "cx": 1}

    def test_summary_mentions_counts(self, bell_circuit):
        text = bell_circuit.summary()
        assert "qubits=2" in text and "gates=2" in text


class TestCircuitTransforms:
    def test_unitary_of_bell(self, bell_circuit):
        u = bell_circuit.unitary()
        assert is_unitary(u)
        psi = u @ np.eye(4)[:, 0]
        assert psi[0] == pytest.approx(1 / np.sqrt(2))
        assert psi[3] == pytest.approx(1 / np.sqrt(2))

    def test_unitary_rejects_noisy(self, bell_circuit):
        bell_circuit.append(depolarizing_channel(0.1), 0)
        with pytest.raises(ValidationError):
            bell_circuit.unitary()

    def test_inverse_gives_identity(self):
        c = Circuit(2).h(0).rz(0.7, 1).cx(0, 1)
        product = c.compose(c.inverse()).unitary()
        assert np.allclose(product, np.eye(4))

    def test_inverse_rejects_noisy(self, bell_circuit):
        bell_circuit.append(depolarizing_channel(0.1), 0)
        with pytest.raises(ValidationError):
            bell_circuit.inverse()

    def test_compose_size_mismatch(self, bell_circuit):
        with pytest.raises(ValidationError):
            bell_circuit.compose(Circuit(3))

    def test_without_noise(self, bell_circuit):
        bell_circuit.append(depolarizing_channel(0.1), 0)
        ideal = bell_circuit.without_noise()
        assert ideal.is_noiseless()
        assert ideal.gate_count() == 2

    def test_copy_is_independent(self, bell_circuit):
        clone = bell_circuit.copy()
        clone.h(1)
        assert len(clone) == len(bell_circuit) + 1

    def test_unitary_qubit_limit(self):
        with pytest.raises(ValidationError):
            Circuit(13).unitary()


def _fresh(circuit):
    """Both fingerprints of an instruction-for-instruction rebuild (no memo to reuse)."""
    rebuilt = Circuit(circuit.num_qubits).extend(circuit)
    return rebuilt.fingerprint(), rebuilt.structural_fingerprint()


class TestFingerprintMemo:
    """Fingerprints are memoized; every in-place mutation drops the memo."""

    @staticmethod
    def _parametric():
        from repro.circuits.parameters import Parameter, ParametricGate

        return Circuit(2).h(0).append(ParametricGate("rz", (Parameter("g"),)), 1).cx(0, 1)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.append(glib.H(), 1),
            lambda c: c.h(0),
            lambda c: c.extend([Instruction(glib.X(), (1,))]),
            lambda c: c.insert(0, glib.X(), 1),
            lambda c: c.append(depolarizing_channel(0.1), 0),
        ],
        ids=["append", "gate_helper", "extend", "insert", "noise"],
    )
    def test_every_mutator_changes_the_fingerprint(self, mutate):
        circuit = self._parametric()
        before = (circuit.fingerprint(), circuit.structural_fingerprint())
        assert before == _fresh(circuit)
        mutate(circuit)
        after = (circuit.fingerprint(), circuit.structural_fingerprint())
        assert after == _fresh(circuit)
        assert after[0] != before[0] and after[1] != before[1]

    def test_memo_never_survives_into_a_copy_slice_or_compose(self):
        circuit = self._parametric()
        memoized = (circuit.fingerprint(), circuit.structural_fingerprint())
        clone = circuit.copy()
        clone.x(1)
        assert (clone.fingerprint(), clone.structural_fingerprint()) == _fresh(clone)
        assert (circuit.fingerprint(), circuit.structural_fingerprint()) == memoized
        head = circuit[0:1]
        assert (head.fingerprint(), head.structural_fingerprint()) == _fresh(head) != memoized
        composed = circuit.compose(Circuit(2).x(0))
        assert (composed.fingerprint(), composed.structural_fingerprint()) == _fresh(composed)
        assert composed.fingerprint() != memoized[0]
        # An unchanged copy shares the value, not the memo.
        assert circuit.copy().fingerprint() == memoized[0]
