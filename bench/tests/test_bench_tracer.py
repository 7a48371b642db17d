"""The outside tracer: counts, self times, missing names and uninstall."""

import program
import tracer as tracer_mod
from tracer import Tracer

ALG = {"ring": ("field", 2, 2, (1, 1, 1)), "sigma": 1, "beta": None, "f": [2, 0, 0, 1]}


def test_traced_probe(monkeypatch):
    sk = program.load()
    original = sk.petit.PetitAlgebra.mul
    monkeypatch.setattr(tracer_mod, "SPANS", tracer_mod.SPANS + [("petit", "gone", "petit.gone")])
    t = Tracer(sk)
    t.install()
    try:
        [op] = program.build(sk, "structure", [ALG])
        op()
    finally:
        t.uninstall()
    assert sk.petit.PetitAlgebra.mul is original
    assert "petit.gone" not in t.installed and "petit.mul" in t.installed
    calls, incl, self_s, counts = t.totals()
    assert calls["petit.probe"] == 1 and calls["petit.mul"] > 1000
    assert calls["petit.algebra_init"] == 1
    assert 0 < self_s["petit.probe"] < incl["petit.probe"]
    assert counts["coeffring.ring_ops"] > calls["petit.mul"]
    # function wrappers are taken out of every module that imported the name
    for mod in (sk.petit, sk.cli):
        assert not hasattr(mod.probe_structure, "__wrapped__")
