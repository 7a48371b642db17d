"""The workloads' calls into skewcodes.

``load()`` imports skewcodes; ``build()`` turns a workload's inputs
into program objects (rings, twists, polynomials, algebras) and returns one
operation per input.  An operation returns the program's raw output, and
``to_json`` turns it into the JSON form the checks read.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from types import SimpleNamespace

MODULES = ("coeffring", "skewpoly", "petit", "codes", "classify", "catalogue", "cli")


def load():
    """Import skewcodes; its modules by name."""
    return SimpleNamespace(**{m: importlib.import_module(f"skewcodes.{m}") for m in MODULES})


def _ring(sk, spec):
    if spec[0] == "field":
        return sk.coeffring.make_field(spec[1], spec[2], modulus=list(spec[3]))
    return sk.coeffring.make_residue_ring(spec[1])


def _element(ctx, a):
    """The element of a reference int: its base-p digits over a field, itself over Z_n."""
    if ctx.kind == "field":
        return ctx.from_json([(a // ctx.p ** i) % ctx.p for i in range(ctx.r)])
    return ctx.from_json(a)


def _poly(sk, ctx, tw, ints):
    return sk.skewpoly.SkewPoly([_element(ctx, a) for a in ints], tw)


def _twist(sk, ctx, sigma, beta=None):
    delta = None if beta is None else _element(ctx, beta)
    return sk.skewpoly.TwistContext(ctx, sk.coeffring.Automorphism(ctx, sigma), delta)


def _catalogue_argv(cfg):
    spec = cfg["ring"]
    if spec[0] == "field":
        ring = ["--field", ",".join(str(x) for x in (spec[1], spec[2], *spec[3]))]
    else:
        ring = ["--ring", str(spec[1])]
    argv = ["catalogue", *ring, "--sigma", str(cfg["sigma"]), "--m", str(cfg["m"])]
    return argv + (["--constacyclic"] if cfg["constacyclic"] else [])


def build(sk, workload, inputs):
    """Program objects for every input, and one zero-argument operation per input."""
    ops = []
    for item in inputs:
        if workload == "catalogue":
            # the command line builds its own ring: set-up is the import
            ops.append(lambda argv=_catalogue_argv(item): _run_cli(sk, argv))
            continue
        ctx = _ring(sk, item["ring"])
        tw = _twist(sk, ctx, item["sigma"], item.get("beta"))
        if workload == "classify":
            f, h = _poly(sk, ctx, tw, item["f"]), _poly(sk, ctx, tw, item["h"])
            ops.append(lambda f=f, h=h: sk.classify.classify_pair(f, h))
        else:
            A = sk.petit.PetitAlgebra(_poly(sk, ctx, tw, item["f"]))
            ops.append(lambda A=A: sk.petit.probe_structure(A))
    return ops


def _run_cli(sk, argv):
    """`skewcodes <argv>` with default options; its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sk.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"skewcodes {' '.join(argv)} exited {code}")
    return out.getvalue()


def to_json(workload, output):
    if workload == "catalogue":
        return [json.loads(line) for line in output.splitlines()]
    return output.to_json()
