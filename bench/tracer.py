"""Tracing of skewcodes from outside the program.

``Tracer.install`` wraps functions and methods of skewcodes in place:
a span wrapper records (name, start, end, parent, thread) and a counter
wrapper counts calls.  Because modules import names directly (``from
.skewpoly import right_divide``), a function's wrapper is installed in every
skewcodes module that holds it.  A name that no longer exists is skipped;
``installed`` lists the span and counter names that were wrapped.

Self time is the span's thread CPU time minus the thread CPU time of its
child spans on the same thread, so GIL-bound worker threads are not charged
for the time another thread held the lock.  A span opened on a thread with
no open span (a catalogue worker thread) records as parent the span open on
the main thread.  The first ``MAX_LOGGED`` span records are kept in memory
and written out at the end; totals and counts cover every span.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

MAX_LOGGED = 50_000

# (module, attribute path, span name)
SPANS = [
    ("skewpoly", "right_divide", "skewpoly.right_divide"),
    ("skewpoly", "skew_mul", "skewpoly.skew_mul"),
    ("skewpoly", "enumerate_monic_right_divisors", "skewpoly.enumerate_divisors"),
    ("petit", "PetitAlgebra.__init__", "petit.algebra_init"),
    ("petit", "PetitAlgebra.mul", "petit.mul"),
    ("petit", "probe_structure", "petit.probe"),
    ("codes", "LinearCode.codewords", "codes.codewords"),
    ("codes", "min_hamming_distance", "codes.min_distance"),
    ("classify", "classify_pair", "classify.classify_pair"),
    ("classify", "check_equivalence", "classify.check_equivalence"),
    ("classify", "verify_witness_multiplicative", "classify.witness_verify"),
    ("classify", "equivalence_class_of", "classify.class_orbit"),
    ("catalogue", "run_catalogue", "catalogue.run"),
    ("catalogue", "partition_classes", "catalogue.partition"),
    ("catalogue", "_codes_for", "catalogue.codes_for"),
    ("cli", "main", "cli.main"),
]

# (module, attribute path, counter name): calls counted, no span
COUNTERS = [
    ("coeffring", "RingContext.add", "coeffring.ring_ops"),
    ("coeffring", "RingContext.neg", "coeffring.ring_ops"),
    ("coeffring", "RingContext.mul", "coeffring.ring_ops"),
    ("coeffring", "RingContext.inverse", "coeffring.ring_ops"),
    ("coeffring", "Automorphism.__init__", "coeffring.aut_built"),
]


class _Span:
    __slots__ = ("name", "parent", "cpu0", "wall0", "child_cpu", "tag", "idx")

    def __init__(self, name, parent, tag):
        self.name, self.parent, self.tag = name, parent, tag
        self.child_cpu = 0.0


class Tracer:
    def __init__(self, sk):
        self.sk = sk
        self.local = threading.local()
        self.main_stack = []
        self.lock = threading.Lock()
        self.states = []
        self.ids = itertools.count()
        self.log = {}  # span id -> (name, start, end, parent id, thread)
        self.installed = set()
        self.patches = []  # (owner, attribute, original)

    # -- per-thread state ------------------------------------------------

    def _state(self):
        st = getattr(self.local, "st", None)
        if st is None:
            st = self.local.st = {
                "stack": self.main_stack if threading.current_thread() is threading.main_thread() else [],
                "calls": defaultdict(int),
                "incl": defaultdict(float),
                "self": defaultdict(float),
                "counts": defaultdict(int),
            }
            with self.lock:
                self.states.append(st)
        return st

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            parent = stack[-1] if stack else (tracer.main_stack[-1] if tracer.main_stack else None)
            span = _Span(name, parent, args[0] if name == "classify.witness_verify" else None)
            tracer._enter(st, span, args)
            span.idx = next(tracer.ids)
            stack.append(span)
            span.wall0 = time.perf_counter()
            span.cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - span.cpu0
                wall1 = time.perf_counter()
                stack.pop()
                st["calls"][name] += 1
                st["incl"][name] += cpu
                st["self"][name] += cpu - span.child_cpu
                if stack:
                    stack[-1].child_cpu += cpu
                if span.idx < MAX_LOGGED:
                    tracer.log[span.idx] = (name, span.wall0, wall1,
                                            parent.idx if parent else None, threading.get_ident())

        wrapper.__wrapped__ = fn
        return wrapper

    def _enter(self, st, span, args):
        """Counts taken at span boundaries from the call's arguments."""
        name, counts = span.name, st["counts"]
        if name == "skewpoly.enumerate_divisors":
            f, degree = args[0], args[1]
            counts["skewpoly.divisor_candidates"] += f.twist.ring.size ** degree
        elif name == "codes.codewords" and getattr(args[0], "_codewords", None) is None:
            code = args[0]
            counts["codes.codewords"] += code.algebra.ring.size ** code.dimension
        elif (name == "petit.mul" and span.parent is not None and span.parent.tag is not None
              and span.parent.tag is getattr(args[0], "f", None)):
            # a product in S_f directly under the verification of a witness
            # f -> h: one checked pair
            counts["classify.witness_pairs"] += 1

    def _counter_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._state()["counts"][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for module, path, name in table:
                self._patch(module, path, name, make)

    def _patch(self, module, path, name, make):
        owner = getattr(self.sk, module, None)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            return
        self.installed.add(name)
        wrapper = make(name, fn)
        if outer:
            self.patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        # a function: replace it in every skewcodes module that imported it
        mods = [m for n, m in sys.modules.items() if n == "skewcodes" or n.startswith("skewcodes.")]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self.patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self.patches):
            setattr(owner, attr, fn)
        self.patches.clear()

    # -- results ---------------------------------------------------------

    def totals(self):
        """(calls, inclusive CPU seconds, self CPU seconds, counts) summed over threads."""
        calls, incl, self_s, counts = (defaultdict(int), defaultdict(float),
                                       defaultdict(float), defaultdict(int))
        for st in self.states:
            for dst, key in ((calls, "calls"), (incl, "incl"), (self_s, "self"), (counts, "counts")):
                for k, v in st[key].items():
                    dst[k] += v
        return calls, incl, self_s, counts

    def write(self, path):
        """The span log as JSON lines: id, name, start, end, parent id, thread."""
        total = next(self.ids)
        with open(path, "w") as fh:
            for idx in sorted(self.log):
                name, start, end, parent, thread = self.log[idx]
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")
            fh.write(json.dumps({"spans": total, "dropped": max(0, total - MAX_LOGGED)}) + "\n")
