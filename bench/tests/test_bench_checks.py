"""Each checker accepts the program's output and rejects a corrupted copy."""

import copy

import checks
import program
import pytest
from inputs import make_inputs
from reference import equivalence_holds, isometry_degrees, monomial_map_is_multiplicative, trailing

GF4 = ("field", 2, 2, (1, 1, 1))


@pytest.fixture(scope="module")
def sk():
    return program.load()


def run(sk, workload, items):
    return [program.to_json(workload, op()) for op in program.build(sk, workload, items)]


def test_catalogue_check(sk):
    cfg = {"ring": GF4, "sigma": 1, "m": 3, "constacyclic": False}
    [records] = run(sk, "catalogue", [cfg])
    assert checks.check_catalogue(cfg, records) == []

    bad = copy.deepcopy(records)
    code = next(c for rec in bad for c in rec["codes"])
    code["min_dist"] += 1
    assert any("min_dist" in e for e in checks.check_catalogue(cfg, bad))

    # split a class in two: its last member becomes a class of its own
    bad = copy.deepcopy(records)
    rec = next(r for r in bad if len(r["full_class"]) > 1)
    moved = rec["full_class"].pop()
    for sub in rec["chen_classes"]:
        if moved in sub:
            sub.remove(moved)
    rec["chen_classes"] = [sub for sub in rec["chen_classes"] if sub]
    bad.append({**rec, "representative": moved, "full_class": [moved], "chen_classes": [[moved]]})
    assert checks.check_catalogue(cfg, bad)

    bad = copy.deepcopy(records)
    bad[0]["codes"].pop()
    assert any("right divisors" in e for e in checks.check_catalogue(cfg, bad))


def test_constacyclic_counts_check(sk):
    cfg = {"ring": ("field", 3, 2, (1, 0, 1)), "sigma": 1, "m": 2, "constacyclic": True}
    [records] = run(sk, "catalogue", [cfg])
    assert checks.check_catalogue(cfg, records) == []
    merged = copy.deepcopy(records[:1])
    assert checks.check_catalogue(cfg, merged)


def test_classification_check_wrong_alpha(sk):
    R, tw = checks.ring_of(GF4), checks.twist_of(GF4, 1)
    f = [1, 2, 0, 1]
    h = [2, 3, 0, 1]  # equivalent to f at k = 1
    pair = {"ring": GF4, "sigma": 1, "f": f, "h": h}
    [out] = run(sk, "classify", [pair])
    assert out["witness"]["k"] == 1
    assert checks.check_classification(pair, out) == []

    tau = R.frobenius(out["witness"]["tau_frob_exp"])
    wrong = next(a for a in R.units if not equivalence_holds(tw, trailing(R, f), trailing(R, h), tau, a))
    bad = copy.deepcopy(out)
    bad["witness"]["alpha"] = R.digits(wrong)
    assert any("coefficient condition" in e for e in checks.check_classification(pair, bad))

    weaker = dict(out, relation="Isometric" if out["relation"] != "Isometric" else "NotRelated")
    assert any("strongest relation" in e for e in checks.check_classification(pair, weaker))


def test_classification_check_wrong_degree(sk):
    pair = next(p for p in make_inputs("classify", 0) if p["stratum"].startswith("GF(2) m=5 ChenIsometric"))
    [out] = run(sk, "classify", [pair])
    assert checks.check_classification(pair, out) == []
    tw = checks.twist_of(pair["ring"], 0)
    w = out["witness"]
    wrong = [k for k in isometry_degrees(5, 1)
             if not monomial_map_is_multiplicative(tw, pair["f"], pair["h"], [0, 1], 1, k)]
    assert wrong
    bad = copy.deepcopy(out)
    bad["witness"]["k"] = wrong[0]
    assert any("not multiplicative" in e for e in checks.check_classification(pair, bad))
    assert w["k"] not in wrong


def test_structure_check(sk):
    alg = {"ring": GF4, "sigma": 1, "beta": None, "f": [2, 0, 0, 1]}
    [out] = run(sk, "structure", [alg])
    assert checks.check_structure(alg, out) == []
    for slot in range(3):
        bad = copy.deepcopy(out)
        bad["nucleus_dims"][slot] -= 1
        assert any("nucleus dims" in e for e in checks.check_structure(alg, bad))
    bad = dict(out, associative=True)
    assert checks.check_structure(alg, bad)


def test_structure_check_residue_and_delta(sk):
    algs = [
        {"ring": ("residue", 4), "sigma": 0, "beta": None, "f": [3, 1, 1]},
        {"ring": GF4, "sigma": 1, "beta": 2, "f": [2, 0, 1]},
    ]
    for alg, out in zip(algs, run(sk, "structure", algs)):
        assert checks.check_structure(alg, out) == []
        bad = copy.deepcopy(out)
        bad["nucleus_dims"][1] += 1
        assert checks.check_structure(alg, bad)
