"""Session-layer error paths, the CLI-parity contract and the typed executor field."""

import warnings

import pytest

from repro.api import Session, apply_noise, simulate
from repro.backends import BackendUnsupportedError, SimulationTask, get_backend
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.noise import NoiseModel, depolarizing_channel
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def noisy_circuit():
    ideal = qaoa_circuit(4, seed=7, native_gates=False)
    return apply_noise(
        ideal, {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 2}
    )


class TestFacadeErrors:
    def test_unknown_backend_name(self, noisy_circuit):
        with pytest.raises(ValidationError, match="unknown backend"):
            simulate(noisy_circuit, backend="nope")

    def test_capability_mismatch_noisy_on_exact_only(self, noisy_circuit):
        with pytest.raises(BackendUnsupportedError, match="noise"):
            simulate(noisy_circuit, backend="statevector")

    def test_submit_fails_fast_on_capability_mismatch(self, noisy_circuit):
        # the check happens at submission, not inside the future
        with Session() as session:
            with pytest.raises(BackendUnsupportedError):
                session.submit(noisy_circuit, backend="statevector")

    def test_invalid_level(self, noisy_circuit):
        with pytest.raises(ValidationError, match="level"):
            simulate(noisy_circuit, backend="approximation", level=-1)

    def test_invalid_samples(self, noisy_circuit):
        with pytest.raises(ValidationError, match="samples"):
            simulate(noisy_circuit, backend="trajectories", samples=0)

    def test_invalid_workers(self, noisy_circuit):
        with pytest.raises(ValidationError, match="workers"):
            simulate(noisy_circuit, backend="trajectories", workers=0)
        with pytest.raises(ValidationError, match="workers"):
            Session(workers=0)

    def test_task_and_kwargs_are_mutually_exclusive(self, noisy_circuit):
        with Session() as session:
            with pytest.raises(ValidationError, match="not both"):
                session.run(
                    noisy_circuit,
                    backend="tn",
                    task=SimulationTask(seed=1),
                    seed=2,
                )

    def test_closed_session_rejects_dispatch(self, noisy_circuit):
        session = Session()
        session.close()
        with pytest.raises(ValidationError, match="closed"):
            session.run(noisy_circuit, backend="tn")

    def test_bare_noise_model_is_rejected_with_guidance(self):
        with pytest.raises(ValidationError, match="insert_random"):
            simulate(ghz_circuit(2), noise=NoiseModel(depolarizing_channel(0.01)))

    def test_noise_mapping_without_count_is_rejected(self):
        # defaulting to 0 would silently return the noiseless fidelity
        with pytest.raises(ValidationError, match="explicit 'count'"):
            simulate(ghz_circuit(2), noise={"channel": "depolarizing",
                                            "parameter": 0.05})

    def test_unknown_noise_key(self):
        with pytest.raises(ValidationError, match="unknown noise key"):
            simulate(ghz_circuit(2), noise={"chanel": "depolarizing", "count": 1})

    def test_unknown_noise_channel(self):
        with pytest.raises(ValidationError, match="unknown noise channel"):
            simulate(ghz_circuit(2), noise={"channel": "cosmic_rays", "count": 1})

    @pytest.mark.parametrize(
        "noise",
        [
            {"count": "x"},
            {"count": 2.7},
            {"count": 1, "parameter": "p"},
            {"count": 1, "parameter": float("nan")},
            {"count": 1, "seed": "abc"},
            {"count": 1, "seed": 1.5},
            {"count": 1, "seed": -1},
        ],
        ids=["count-str", "count-fraction", "parameter-str", "parameter-nan",
             "seed-str", "seed-fraction", "seed-negative"],
    )
    def test_malformed_noise_mapping_is_a_validation_error(self, noise):
        # never a bare ValueError/TypeError, and never a silent truncation
        with Session() as session:
            with pytest.raises(ValidationError, match="noise '(count|parameter|seed)'"):
                session.compile(ghz_circuit(2), "tn", noise=noise)

    def test_samples_for_precision_rejects_deterministic_backend(self, noisy_circuit):
        with Session() as session:
            with pytest.raises(ValidationError, match="not stochastic"):
                session.samples_for_precision(noisy_circuit, 1e-3, backend="tn")

    def test_auto_backend_needs_a_supported_circuit(self):
        # 30 qubits exceeds every auto candidate's dense ceiling, but the TN
        # backend has no intrinsic limit: auto must still resolve.
        with Session() as session:
            backend = session.backend("auto", ghz_circuit(30))
        assert backend.name == "tn"


class TestLegacyShims:
    def test_typed_executor_field_does_not_warn(self, noisy_circuit):
        task = SimulationTask(num_samples=64, seed=5, workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            get_backend("trajectories").run(noisy_circuit, task)


class TestCompareParity:
    def test_submit_batch_reproduces_compare_bit_for_bit(self, capsys):
        """A Session.submit() batch equals the CLI compare on a Table III instance."""
        from pathlib import Path

        from repro import cli
        from repro.analysis import format_value
        from repro.sweeps import CircuitCache, load_spec

        spec = load_spec(
            Path(__file__).resolve().parents[2] / "benchmarks" / "specs" / "table3.yaml"
        )
        cache = CircuitCache(spec)
        cell = spec.cells()[0]
        circuit = cache.circuit(cell)

        # the CLI's seeded qaoa_4 instance with the spec's noise model
        seed = spec.circuits[0].seed if spec.circuits[0].seed is not None else spec.seed
        noise = spec.noises[0]
        assert cli.main([
            "compare", "--circuit", cell.circuit.label, "--seed", str(seed),
            "--noises", str(noise.count), "--channel", noise.channel,
            "--parameter", str(noise.parameter), "--composite-gates",
            "--backends", "mm,ours,traj", "--samples", "256",
        ]) == 0
        out = capsys.readouterr().out

        cli_circuit = cli._make_noisy_circuit(
            cli.build_parser().parse_args([
                "compare", "--circuit", cell.circuit.label, "--seed", str(seed),
                "--noises", str(noise.count), "--channel", noise.channel,
                "--parameter", str(noise.parameter), "--composite-gates",
            ])
        )
        with Session() as session:
            futures = {
                name: session.submit(
                    cli_circuit, backend=name, level=1, samples=256, seed=seed
                )
                for name in ("density_matrix", "approximation", "trajectories")
            }
            results = {name: future.result() for name, future in futures.items()}
        for name, result in results.items():
            rendered = format_value(result.value)
            assert f"{name} " in out or f"{name}|" in out.replace(" ", "")
            assert rendered in out, (
                f"backend {name}: session value {rendered} not in compare output"
            )
