"""Literal identity pins: configuration hashes, plan keys and sweep digests.

Recorded results, plan-cache entries and sharded sweep files are matched by
these hashes across releases, so a refactor must leave every one of them
unchanged.  The values below were minted by the released code; a test here
fails when a change moves what a hash covers or how it is spelled.
"""

import pytest

from repro.api import Session, SimulationResult, apply_noise
from repro.circuits.library import ghz_circuit, qaoa_circuit
from repro.circuits.parameters import circuit_parameters
from repro.dist import records_digest
from repro.sweeps import SweepRunner, load_spec

NOISE = {"channel": "depolarizing", "parameter": 0.01, "count": 3, "seed": 4}

CIRCUITS = {"qaoa_4": lambda: qaoa_circuit(4, seed=7), "ghz_3": lambda: ghz_circuit(3)}

#: id -> (backend, circuit, compile options, config_hash, plan_key); options
#: may override the default ``noise``.
PINS = {
    "tn": ("tn", "qaoa_4", {}, "9017f57f43cd1316", "2609b3f3058722e7"),
    "approximation": (
        "approximation", "qaoa_4", {"level": 2}, "ff1d529ccfaec09b", "095a119b972550a3",
    ),
    "trajectories_tn": (
        "trajectories_tn", "ghz_3", {"samples": 500, "seed": 9},
        "02d7434c193bb054", "9162d483f1481ab2",
    ),
    "trajectories": (
        "trajectories", "ghz_3", {"samples": 500, "seed": 9, "workers": 2},
        "756ce56d7ee25db3", "5f33ad2d77377573",
    ),
    "density_matrix": (
        "density_matrix", "ghz_3", {"output_state": "ideal"},
        "a6cbad98e1526a25", "f877dc7da6b80323",
    ),
    "approximation-level1": (
        "approximation", "ghz_3", {"level": 1}, "e6cad7a595ba66f4", "c5fc23f8b6c5bc14",
    ),
    "mpdo": ("mpdo", "ghz_3", {}, "f39f464df6639e30", "5e73fe1c515bf7b9"),
    "mps-noiseless": ("mps", "qaoa_4", {"noise": None}, "0dd9c109664aeb03", "8e63be1aa6af3634"),
    "statevector-noiseless": (
        "statevector", "ghz_3", {"noise": None}, "a5fdbabc585223eb", "dc252bae7024e473",
    ),
    "tdd": ("tdd", "ghz_3", {}, "7779ea7b9d828293", "33e5e12fe06f22b2"),
    "tn-basis-output": (
        "tn", "ghz_3", {"output_state": "111"}, "e2d78cd38db6c7bb", "103a603349912708",
    ),
    "trajectories-qaoa_4": (
        "trajectories", "qaoa_4", {"samples": 200, "seed": 3},
        "96f1b10ca1bad921", "938d98a9585a8c70",
    ),
}


@pytest.mark.parametrize(
    "backend, circuit, options, config_hash, plan_key",
    list(PINS.values()),
    ids=list(PINS),
)
def test_compile_hashes_are_pinned(backend, circuit, options, config_hash, plan_key):
    with Session(seed=11) as session:
        executable = session.compile(
            CIRCUITS[circuit](), backend=backend, **{"noise": NOISE, **options}
        )
    assert (executable.config_hash, executable.plan_key) == (config_hash, plan_key)


def test_parametric_bind_hashes_are_pinned():
    parametric = apply_noise(qaoa_circuit(4, seed=7, native_gates=False, parametric=True), NOISE)
    names = sorted(circuit_parameters(parametric))
    assert names == ["beta0", "gamma0"]
    with Session(seed=11) as session:
        executable = session.compile(parametric, backend="tn")
        bound = executable.bind({name: 0.25 * (index + 1) for index, name in enumerate(names)})
    assert (executable.config_hash, executable.plan_key) == ("9017f57f43cd1316", "aafce33228069090")
    # Bindings share the parametric plan; only the provenance hash moves.
    assert (bound.config_hash, bound.plan_key) == ("59f1daf5552b92b1", "aafce33228069090")


def test_sweep_records_digest_is_pinned(tmp_path):
    spec = load_spec(
        {
            "name": "pins",
            "seed": 11,
            "grid": {
                "circuit": [{"name": "ghz_3"}],
                "noise": [{"channel": "depolarizing", "parameter": 0.01, "count": 2}],
                "backend": ["density_matrix", "tn", "approximation"],
                "samples": [100],
            },
        }
    )
    SweepRunner(spec, tmp_path / "records.jsonl").run()
    assert records_digest(tmp_path / "records.jsonl") == (
        "0ada2dfb78273dd836025cb4101fc3bce0d6156c611f4feb17153cd8b77b6efd"
    )


#: A result record as the released code serialised it, ``"device"`` included.
RECORD = {
    "backend": "approximation",
    "value": 0.4933499999999986,
    "standard_error": 0.0,
    "error_bound": 0.0028444444444444272,
    "elapsed_seconds": 0.0022091129999353143,
    "num_samples": None,
    "num_contractions": 14,
    "seed": None,
    "device": "cpu",
    "config_hash": "e6cad7a595ba66f4",
    "cache_hit": False,
    "metadata": {"level": 1, "error_bound": 0.0028444444444444272, "num_terms": 7, "num_noises": 2},
}


def test_from_dict_reads_a_record_that_carries_device():
    restored = SimulationResult.from_dict(RECORD)
    assert (restored.backend, restored.value, restored.config_hash) == (
        "approximation", 0.4933499999999986, "e6cad7a595ba66f4",
    )
    assert restored.num_contractions == 14 and restored.metadata == RECORD["metadata"]
    assert SimulationResult.from_dict(restored.to_dict()) == restored
    without_device = {key: value for key, value in RECORD.items() if key != "device"}
    assert {key: value for key, value in restored.to_dict().items() if key != "device"} == without_device
