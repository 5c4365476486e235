"""Sweep-spec parsing and grid expansion."""

import json

import pytest

from repro.circuits.library import ghz_circuit
from repro.circuits.qasm import to_qasm
from repro.sweeps import CircuitCache, SweepSpec, load_spec, stable_seed
from repro.utils.validation import ValidationError


def _minimal(**overrides):
    data = {
        "name": "t",
        "grid": {"circuit": "ghz_2", "backend": "statevector"},
    }
    data.update(overrides)
    return data


def test_scalar_axes_become_singletons():
    spec = load_spec(_minimal())
    assert len(spec.circuits) == 1 and len(spec.backends) == 1
    assert spec.levels == (1,) and spec.samples == (1000,)
    assert [cell.cell_id for cell in spec.cells()] == [
        "ghz_2/noiseless/statevector/level=1/samples=1000"
    ]


def test_grid_expansion_order_is_deterministic_product():
    spec = load_spec(
        {
            "name": "t",
            "grid": {
                "circuit": ["ghz_2", "qaoa_4"],
                "noise": [
                    {"channel": "depolarizing", "count": 2},
                    {"channel": "depolarizing", "count": 4},
                ],
                "backend": ["density_matrix", "tn"],
                "level": [1, 2],
                "samples": [10],
            },
        }
    )
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 2 * 2
    # circuit-major order, samples minor
    assert cells[0].circuit.label == "ghz_2" and cells[-1].circuit.label == "qaoa_4"
    assert [cell.level for cell in cells[:2]] == [1, 2]


def test_cell_seeds_are_stable_under_grid_extension():
    small = load_spec(_minimal())
    big = load_spec(
        {
            "name": "t",
            "grid": {"circuit": ["ghz_2", "ghz_3"], "backend": "statevector"},
        }
    )
    by_id = {cell.cell_id: cell.seed for cell in big.cells()}
    for cell in small.cells():
        assert by_id[cell.cell_id] == cell.seed
    assert small.cells()[0].seed == stable_seed(7, "cell", small.cells()[0].cell_id)


def test_backend_aliases_canonicalise_and_unknown_backend_rejected():
    spec = load_spec(_minimal(grid={"circuit": "ghz_2", "backend": "mm"}))
    assert spec.backends[0].name == "density_matrix"
    with pytest.raises(ValidationError, match="unknown backend"):
        load_spec(_minimal(grid={"circuit": "ghz_2", "backend": "nope"}))


def test_unknown_backend_option_rejected_at_load():
    # A typo in an adapter option must fail the spec, not every cell.
    backend = {"name": "tn", "options": {"max_intermediate": 5}}
    with pytest.raises(ValidationError, match="accepts: max_intermediate_size"):
        load_spec(_minimal(grid={"circuit": "ghz_2", "backend": backend}))
    backend = {"name": "mm", "options": {"max_qubits": 8}}
    spec = load_spec(_minimal(grid={"circuit": "ghz_2", "backend": backend}))
    assert dict(spec.backends[0].options) == {"max_qubits": 8}


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(grid={"backend": "tn"}), "circuit"),
        (lambda d: d.update(grid={"circuit": "ghz_2"}), "backend"),
        (lambda d: d.update(typo=1), "unknown sweep spec key"),
        (lambda d: d.update(grid={"circuit": "ghz_2", "backend": "tn", "bogus": 1}),
         "unknown grid key"),
        (lambda d: d.update(output_state="weird"), "output_state"),
        (lambda d: d.update(grid={"circuit": "ghz_2", "backend": "tn", "samples": [0]}),
         "positive"),
        (lambda d: d.update(
            grid={"circuit": "ghz_2", "backend": "tn",
                  "noise": {"channel": "cosmic_rays"}}), "unknown noise channel"),
        # a noisy channel without a count would silently run noiseless
        (lambda d: d.update(
            grid={"circuit": "ghz_2", "backend": "tn",
                  "noise": {"channel": "depolarizing", "parameter": 0.01}}),
         "explicit 'count'"),
        (lambda d: d.update(
            grid={"circuit": {"name": "ghz_2", "qasm": "x.qasm"}, "backend": "tn"}),
         "exactly one"),
    ],
)
def test_malformed_specs_raise_validation_error(mutate, match):
    data = _minimal()
    mutate(data)
    with pytest.raises(ValidationError, match=match):
        load_spec(data)


@pytest.mark.parametrize(
    "entry",
    [
        {"channel": "depolarizing", "count": 2.5},
        {"channel": "depolarizing", "count": True},
        {"channel": "depolarizing", "count": -1},
        {"channel": "depolarizing", "count": 2, "seed": 1.7},
        {"channel": "depolarizing", "count": 2, "parameter": float("nan")},
        {"channel": "depolarizing", "count": 2, "parameter": "x"},
        {"channel": "none", "seed": True},
    ],
    ids=["fractional count", "bool count", "negative count", "fractional seed",
         "nan parameter", "string parameter", "bool seed on none"],
)
def test_noise_entries_are_checked_like_session_noise(entry):
    with pytest.raises(ValidationError, match="noise '(count|seed|parameter)'"):
        load_spec(_minimal(grid={"circuit": "ghz_2", "backend": "tn", "noise": entry}))


def test_noise_entry_shorthands():
    noises = load_spec(_minimal(grid={
        "circuit": "ghz_2",
        "backend": "tn",
        "noise": ["none", {"channel": "depolarizing", "count": 2.0, "parameter": 0.02}],
    })).noises
    assert [noise.label for noise in noises] == ["noiseless", "depolarizing-p0.02-x2"]
    assert noises[1].count == 2 and type(noises[1].count) is int


def test_load_spec_from_yaml_and_json_files(tmp_path):
    pytest.importorskip("yaml")
    yaml_text = (
        "name: filetest\n"
        "grid:\n"
        "  circuit: [ghz_2]\n"
        "  backend: [statevector]\n"
    )
    yaml_path = tmp_path / "s.yaml"
    yaml_path.write_text(yaml_text)
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(
        {"name": "filetest", "grid": {"circuit": ["ghz_2"], "backend": ["statevector"]}}
    ))
    assert load_spec(yaml_path).spec_hash() == load_spec(json_path).spec_hash()


def test_load_spec_bad_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_spec(tmp_path / "missing.yaml")
    pytest.importorskip("yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\n  - ")
    with pytest.raises(ValidationError, match="invalid YAML"):
        load_spec(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_spec(empty)


def test_qasm_circuit_axis_resolves_relative_to_spec(tmp_path):
    (tmp_path / "bell.qasm").write_text(to_qasm(ghz_circuit(2)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"name": "q", "grid": {"circuit": ["bell.qasm"], "backend": ["statevector"]}}
    ))
    spec = load_spec(path)
    assert spec.circuits[0].label == "bell"
    circuit = CircuitCache(spec).circuit(spec.cells()[0])
    assert circuit.num_qubits == 2 and circuit.gate_count() == ghz_circuit(2).gate_count()


def test_spec_roundtrips_through_to_dict():
    spec = load_spec(_minimal(reference="mm", seed=11))
    again = load_spec(spec.to_dict())
    assert isinstance(again, SweepSpec)
    assert again.spec_hash() == spec.spec_hash()
    assert again.reference == "density_matrix"


def test_duplicate_backend_labels_rejected():
    with pytest.raises(ValidationError, match="unique"):
        load_spec(_minimal(grid={
            "circuit": "ghz_2",
            "backend": [{"name": "tn", "label": "x"}, {"name": "tdd", "label": "x"}],
        }))


def test_colliding_circuit_and_noise_labels_rejected():
    # Entries differing only in seed share a label, which would silently alias
    # two grid points onto one cached circuit and one JSONL record.
    with pytest.raises(ValidationError, match="circuit labels"):
        load_spec(_minimal(grid={
            "circuit": [{"name": "qaoa_4", "seed": 1}, {"name": "qaoa_4", "seed": 2}],
            "backend": "tn",
        }))
    with pytest.raises(ValidationError, match="noise labels"):
        load_spec(_minimal(grid={
            "circuit": "ghz_2",
            "backend": "tn",
            "noise": [
                {"channel": "depolarizing", "count": 2, "seed": 1},
                {"channel": "depolarizing", "count": 2, "seed": 2},
            ],
        }))
