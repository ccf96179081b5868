"""In-memory span tracing of coxlift's public functions, from outside ``src/``.

``LAYERS`` maps each per-layer metric name to the functions it wraps.  A
function is patched on its class, or in every ``coxlift`` module global
that binds it, so calls made through ``from .x import f`` are seen too.
Spans are kept in memory as (name, parent, start, end) records and reduced
to call counts and self times after the traced pass.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# metric name -> (module, qualified attribute) pairs
LAYERS = {
    "abgroup.snf": [("coxlift.abgroup", "smith_normal_form_full")],
    "abgroup.pushout_root": [("coxlift.abgroup", "pushout_root")],
    "abgroup.solve_mod": [
        ("coxlift.abgroup", "solve_affine_mod_p"),
        ("coxlift.abgroup", "solve_affine_mod_n"),
    ],
    "cyclo.mul": [("coxlift.cyclo", "CycScalar.__mul__")],
    "cyclo.inverse": [("coxlift.cyclo", "CycScalar.inverse")],
    "cyclo.root_of_unity": [("coxlift.cyclo", "CycScalar.as_root_of_unity")],
    "gring.mono_mul": [("coxlift.gring", "Monomial.__mul__")],
    "gring.elem_mul": [("coxlift.gring", "HomogeneousElement.__mul__")],
    "gring.normal_form": [("coxlift.gring", "GradedRing.normal_form")],
    "gring.h_factorize": [("coxlift.gring", "GradedRing.h_factorize")],
    "mdstack.root_divisor": [("coxlift.mdstack", "root_divisor")],
    "mdstack.root_line_bundle": [("coxlift.mdstack", "root_line_bundle")],
    "mdstack.replay_tower": [("coxlift.mdstack", "replay_tower")],
    "mdstack.spotcheck": [("coxlift.mdstack", "graded_factorial_spotcheck")],
    "lift.pic_level_generators": [("coxlift.lift", "pic_level_generators")],
    "lift.verify_lift": [("coxlift.lift", "verify_lift")],
    "lift.decompose": [("coxlift.lift", "decompose_as_roots")],
    # private engine methods: ROADMAP names them as layers and they have
    # no public entry point
    "lift.base_check": [("coxlift.lift", "_Engine._spotcheck_base_relations")],
    "lift.divisor_step": [("coxlift.lift", "_Engine._divisor_step")],
    "lift.line_step": [("coxlift.lift", "_Engine._line_step")],
    "serialize.parse": [
        ("coxlift.serialize", "parse_problem"),
        ("coxlift.serialize", "parse_decompose"),
    ],
    "serialize.emit": [("coxlift.serialize", "emit_result")],
    "serialize.replay": [("coxlift.serialize", "replay_result")],
}

SNF_LAYER = "abgroup.snf"


class Tracer:
    """Spans of one traced pass, plus the SNF size counters.

    Each span is one record ``[name id, parent index, start, end]``, added
    to ``records`` by a single append, so a case timeout that interrupts a
    wrapper can leave a record unfinished but never out of step with the
    others.  ``close_open`` finishes such records between cases.
    """

    def __init__(self):
        self.names = list(LAYERS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.records = []
        self.open = []
        self.checked = 0
        self.snf_max_dim = 0
        self.snf_max_digits = 0

    def wrap(self, name, fn):
        nid = self.name_ids[name]
        records, stack = self.records, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            records.append(rec)
            stack.append(len(records) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        if name == SNF_LAYER:
            inner = traced

            def traced(M, *args, **kwargs):  # noqa: F811 - SNF adds size counters
                # the size counts before the call, so a call that hangs counts too
                self.snf_max_dim = max(self.snf_max_dim, M.rows, M.cols)
                out = inner(M, *args, **kwargs)
                big = max((abs(x) for T in out[1:3] for row in T.entries for x in row),
                          default=0)
                self.snf_max_digits = max(self.snf_max_digits, decimal_digits(big))
                return out

        return traced

    def close_open(self, now):
        """End the spans a case timeout left unfinished and empty the stack;
        called between cases, when no span should be open.

        An unfinished span ends with its parent, which ended after it was
        interrupted, or at ``now`` if it has none; so spans still nest.
        """
        records = self.records
        for rec in records[self.checked:]:
            if rec[3] == 0.0:
                rec[3] = records[rec[1]][3] if rec[1] >= 0 else now
        self.checked = len(self.records)
        del self.open[:]

    def layer_stats(self):
        """Per-layer ``(calls, self_s)`` from the recorded spans."""
        return self_times(self.names, self.records)


def decimal_digits(x):
    """Decimal digits of |x|, without str(), which refuses very large ints."""
    x = abs(x)
    d = max(1, int(x.bit_length() * 0.30102999566398120))
    while 10 ** d <= x:
        d += 1
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


def self_times(names, records):
    """Calls and self time per name: a span's duration minus its children's.

    ``records`` holds ``[name id, parent index, start, end]`` per span.
    Spans of one thread nest, so the part of a span covered by children is
    the sum of its direct children's durations.
    """
    child = [0.0] * len(records)
    for _, parent, start, end in records:
        if parent >= 0:
            child[parent] += end - start
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    for (nid, _, start, end), covered in zip(records, child):
        n = names[nid]
        calls[n] += 1
        self_s[n] += end - start - covered
    return {n: (calls[n], self_s[n]) for n in names}


def _resolve(module, qualname):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    undo = []
    try:
        for name, targets in LAYERS.items():
            for module, qualname in targets:
                owner, attr = _resolve(module, qualname)
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapper = tracer.wrap(name, orig)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, orig))
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "coxlift" or mod is None:
                        continue
                    for gname, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, gname, wrapper)
                            undo.append((mod, gname, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
