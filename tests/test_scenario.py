import json

import numpy as np
import pytest

from aqbell.errors import (
    NegativityError,
    NormalizationError,
    ScenarioMismatchError,
    SignallingError,
    SizeGuardError,
)
from aqbell.scenario import (
    BellFunctional,
    Scenario,
    basis,
    behavior_from_table,
    behavior_to_json,
    enumerate_deterministic,
    evaluate,
    from_collins_gisin,
    functional_from_json,
    functional_from_table,
    functional_from_terms,
    functional_to_json,
    load_json,
    make_scenario,
    save_json,
    to_collins_gisin,
    unit_functional,
)
from conftest import random_local_behavior


def uniform_behavior(scn):
    table = np.full(scn.table_shape, 1.0 / scn.outcomes**scn.parties)
    return behavior_from_table(scn, table)


def test_make_scenario():
    scn = make_scenario(2, 3, 2)
    assert scn.parties == 2 and scn.settings == (3, 3) and scn.outcomes == 2
    assert make_scenario(1, 1, 2).vertex_count == 2
    for bad in [(0, 1, 2), (1, 0, 2), (1, 1, 1), (-2, 3, 2)]:
        with pytest.raises(ValueError):
            make_scenario(*bad)


def test_behavior_validation(scn222):
    uniform_behavior(scn222)  # white noise is fine
    det = np.zeros(scn222.table_shape)
    det[:, :, 0, 0] = 1.0
    behavior_from_table(scn222, det)

    bumped = np.full(scn222.table_shape, 0.25)
    bumped[0, 0, 0, 0] += 0.1
    with pytest.raises(NormalizationError):
        behavior_from_table(scn222, bumped)

    negative = np.full(scn222.table_shape, 0.25)
    negative[0, 0, 0, 0] = -0.05
    negative[0, 0, 1, 1] = 0.55
    with pytest.raises(NegativityError):
        behavior_from_table(scn222, negative)

    # a NaN entry fails every comparison, so without the finiteness check a
    # table with one would pass despite a -0.5 entry or a sum of 1.65
    negative_nan = negative.copy()
    negative_nan[1, 1, 0, 0] = np.nan
    negative_nan[0, 0, 0, 0] = -0.5
    unnormalized_nan = np.full(scn222.table_shape, 0.25)
    unnormalized_nan[0, 0, 0, 0] = np.nan
    unnormalized_nan[1, 1, 0, 0] = 0.9
    for table in (np.full(scn222.table_shape, np.nan), negative_nan, unnormalized_nan):
        with pytest.raises(ValueError, match="finite"):
            behavior_from_table(scn222, table)

    # Alice's outcome copies Bob's setting: signalling
    signalling = np.zeros(scn222.table_shape)
    for x in range(2):
        for y in range(2):
            signalling[x, y, y, 0] = 1.0
    with pytest.raises(SignallingError):
        behavior_from_table(scn222, signalling)


def test_cg_white_noise(scn222):
    v = to_collins_gisin(uniform_behavior(scn222))
    expected = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25])
    np.testing.assert_allclose(v, expected, atol=1e-15)


def test_cg_deterministic_all_zero(scn222):
    det = np.zeros(scn222.table_shape)
    det[:, :, 0, 0] = 1.0
    v = to_collins_gisin(behavior_from_table(scn222, det))
    np.testing.assert_allclose(v, np.ones(9), atol=1e-15)


def test_cg_anticorrelated_box(scn222):
    # even mixture of "a=0,b=1 always" and "a=1,b=0 always"
    table = np.zeros(scn222.table_shape)
    table[:, :, 0, 1] = 0.5
    table[:, :, 1, 0] = 0.5
    b = behavior_from_table(scn222, table)
    v = to_collins_gisin(b)
    assert v[basis(scn222).index[((0, 1, 0), (1, 1, 0))]] == 0.0  # p(00|11)


# per-party setting counts that differ, with three outcomes
UNEVEN = (Scenario(2, (2, 3), 3), Scenario(3, (1, 2, 3), 3))


def test_round_trip_identity_matrix():
    uniform = tuple(make_scenario(*spec) for spec in ((1, 1, 2), (2, 2, 2), (2, 3, 2), (3, 3, 2)))
    for scn in uniform + UNEVEN:
        b = basis(scn)
        assert np.array_equal(b.tmat @ b.lmat, np.eye(len(b.monomials)))


def test_round_trip_random_behaviors(rng):
    # vertex mixtures span the whole no-signalling subspace
    cases = [(make_scenario(2, 2, 2), 600), (make_scenario(2, 3, 2), 250), (make_scenario(3, 3, 2), 150)]
    cases += [(scn, 40) for scn in UNEVEN]
    worst = 0.0
    for scn, count in cases:
        for _ in range(count):
            b = random_local_behavior(scn, rng)
            back = from_collins_gisin(scn, to_collins_gisin(b))
            worst = max(worst, float(np.abs(back.table - b.table).max()))
    assert worst < 1e-10


def test_round_trip_pr_box(scn222):
    table = np.zeros(scn222.table_shape)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == (x & y):
                        table[x, y, a, b] = 0.5
    box = behavior_from_table(scn222, table)
    back = from_collins_gisin(scn222, to_collins_gisin(box))
    np.testing.assert_allclose(back.table, box.table, atol=1e-12)


def test_from_cg_rejects_negative(scn222):
    entries = to_collins_gisin(uniform_behavior(scn222))
    entries[5] = 0.9  # pair probability above its marginals
    with pytest.raises(NegativityError):
        from_collins_gisin(scn222, entries)
    entries[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        from_collins_gisin(scn222, entries)
    with pytest.raises(ValueError):
        from_collins_gisin(scn222, entries[:-1])


def test_enumerate_counts():
    assert len(enumerate_deterministic(make_scenario(2, 2, 2))) == 16
    assert len(enumerate_deterministic(make_scenario(2, 3, 2))) == 64
    assert len(enumerate_deterministic(make_scenario(3, 3, 2))) == 512


def test_enumerate_exactness(scn222):
    for vertex in enumerate_deterministic(scn222):
        sums = vertex.table.sum(axis=(2, 3))
        assert np.all(sums == 1.0)
        assert set(np.unique(vertex.table)) <= {0.0, 1.0}


def test_enumerate_guard():
    with pytest.raises(SizeGuardError):
        enumerate_deterministic(make_scenario(4, 10, 2))


def test_evaluate_wiring_examples(scn232):
    wiring = functional_from_terms(
        scn232,
        {(): 1.0, ((0, 1, 0),): -1.0, ((1, 1, 0),): -1.0, ((0, 1, 0), (1, 1, 0)): 2.0},
    )
    both_zero = np.zeros(scn232.table_shape)
    both_zero[..., 0, 0] = 1.0
    assert evaluate(wiring, behavior_from_table(scn232, both_zero)) == 1.0

    mismatch = np.zeros(scn232.table_shape)
    mismatch[..., 0, 1] = 1.0
    assert evaluate(wiring, behavior_from_table(scn232, mismatch)) == 0.0

    # shared coin: equal outcomes with probability one at every setting
    coin = np.zeros(scn232.table_shape)
    coin[..., 0, 0] = 0.5
    coin[..., 1, 1] = 0.5
    assert evaluate(wiring, behavior_from_table(scn232, coin)) == 1.0


def test_evaluate_linearity(scn232, rng):
    from aqbell.scenario import basis_size

    n = basis_size(scn232)
    worst = 0.0
    for _ in range(50):
        f1 = BellFunctional(scn232, rng.uniform(-1, 1, n))
        f2 = BellFunctional(scn232, rng.uniform(-1, 1, n))
        t = rng.uniform(-2, 2)
        combo = BellFunctional(scn232, t * f1.coeffs + (1 - t) * f2.coeffs)
        b1 = random_local_behavior(scn232, rng)
        b2 = random_local_behavior(scn232, rng)
        s = rng.uniform(0, 1)
        mix = behavior_from_table(scn232, s * b1.table + (1 - s) * b2.table)
        worst = max(worst, abs(evaluate(combo, b1) - (t * evaluate(f1, b1) + (1 - t) * evaluate(f2, b1))))
        worst = max(worst, abs(evaluate(f1, mix) - (s * evaluate(f1, b1) + (1 - s) * evaluate(f1, b2))))
    assert worst < 1e-12


def test_evaluate_scenario_mismatch(scn222, scn232):
    f = unit_functional(scn222)
    b = random_local_behavior(scn232, np.random.default_rng(0))
    with pytest.raises(ScenarioMismatchError):
        evaluate(f, b)


def test_functional_from_table_round_trip(scn222, rng):
    from aqbell.scenario import basis_size, representative_table

    f = BellFunctional(scn222, rng.uniform(-1, 1, basis_size(scn222)))
    again = functional_from_table(scn222, representative_table(f))
    np.testing.assert_allclose(again.coeffs, f.coeffs, atol=1e-13)


def test_behavior_json_round_trip(scn232, rng):
    b = random_local_behavior(scn232, rng)
    obj = json.loads(json.dumps(behavior_to_json(b)))
    assert obj["format"] == "collins_gisin"
    # serialization is exact: the entries are the Collins-Gisin vector's bits
    index = basis(scn232).index
    entries = np.zeros(len(index))
    for entry in obj["entries"]:
        entries[index[tuple(tuple(letter) for letter in entry["monomial"])]] = entry["coeff"]
    assert np.array_equal(entries, to_collins_gisin(b))


def test_functional_json_round_trip(scn232, rng):
    from aqbell.scenario import basis_size

    f = BellFunctional(scn232, rng.uniform(-1, 1, basis_size(scn232)))
    blob = json.dumps(functional_to_json(f))
    back = functional_from_json(json.loads(blob))
    assert np.array_equal(back.coeffs, f.coeffs)
    assert back.scenario == f.scenario


def test_save_json_replaces_a_longer_file(tmp_path):
    path = tmp_path / "blob.json"
    save_json(path, {"entries": list(range(100))})
    save_json(path, {"entries": [1]})
    assert path.read_text() == '{"entries": [1]}\n'
    assert load_json(path) == {"entries": [1]}


def test_functional_json_full_format(scn222):
    from aqbell.scenario import representative_table

    f = functional_from_terms(scn222, {(): 0.5, ((0, 0, 0), (1, 0, 0)): 1.25})
    obj = {
        "scenario": {"parties": 2, "settings": [2, 2], "outcomes": 2},
        "format": "full",
        "entries": [
            {"monomial": [[0, x, a], [1, y, b]], "coeff": float(representative_table(f)[x, y, a, b])}
            for x in range(2)
            for y in range(2)
            for a in range(2)
            for b in range(2)
        ],
    }
    back = functional_from_json(obj)
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-13)
    # each party exactly once: a missing or repeated party is rejected
    for mono in ([[0, 0, 0]], [[0, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="one letter per party"):
            functional_from_json({**obj, "entries": [{"monomial": mono, "coeff": 1.0}]})
