"""The seeded input generators."""

from collections import Counter

import pytest
from inputs import FAILING_PAIRS, make_inputs


@pytest.mark.parametrize("workload", ["catalogue", "classify", "structure"])
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 3) == make_inputs(workload, 3)


@pytest.mark.parametrize("workload", ["catalogue", "classify", "structure"])
def test_seeds_vary_inputs_not_their_make_up(workload):
    runs = [make_inputs(workload, seed) for seed in range(4)]
    assert any(r != runs[0] for r in runs[1:])
    if workload == "classify":
        strata = [Counter(p["stratum"] for p in r) for r in runs]
        assert all(s == strata[0] for s in strata)
        for r in runs:
            failing = [(p["f"], p["h"]) for p in r if p["stratum"] == "GF(4) m=7 too large"]
            assert sorted(failing) == sorted(FAILING_PAIRS)
    else:
        shapes = [sorted((str(i["ring"][:3]), len(i.get("f", [])), i.get("m")) for i in r) for r in runs]
        assert all(s == shapes[0] for s in shapes)
