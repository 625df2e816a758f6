"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each layer from the outside: it
replaces every binding of a wrapped function in the `anop` modules (the
defining module and every module that imported the name) and restores them
on `uninstall`. Each call becomes a span (name, start, end, parent, round,
op); spans stay in memory and are written out once, when the run ends.

Self time is a span's duration minus the durations of its wrapped children
and minus the time the wrappers themselves spent measuring operands. Counts
and times are reported per traced round (totals divided by the number of
rounds), so they do not depend on how many rounds fit into a run; operands
for `distinct_ratio` are recorded in the first traced round only. The
metric names are read from BENCHMARK.json by the caller.
"""

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, operand statistics the wrapper records)
TARGETS = [
    ("exactla", "kernel_basis", ("dim", "bits")),
    ("exactla", "inverse", ()),
    ("exactla", "psd_decide", ()),
    ("jacobi", "sym_eigen", ("dim",)),
    ("operators", "multiply", ("distinct_pair",)),
    ("operators", "adjoint", ()),
    ("operators", "apply", ("sampling_apply",)),
    ("operators", "apply_float", ()),
    ("operators", "dense_window", ()),
    ("operators", "truncate", ()),
    ("spectral", "positive_spectral_summary", ("distinct",)),
    ("spectral", "summary_eigenspace", ()),
    ("spectral", "kernel_dims", ()),
    ("subspaces", "Subspace.intersect", ()),
    ("subspaces", "Subspace.complement", ()),
    ("predicates", "hyponormal_check", ()),
    ("predicates", "paranormal_refute", ("sampling",)),
    ("predicates", "star_paranormal_check", ("sampling",)),
    ("predicates", "iter_sample_vectors", ("generator",)),
    ("decomposition", "peel_decompose", ()),
    ("decomposition", "certify_normal", ()),
    ("decomposition", "block_upper_inverse", ()),
    ("decomposition", "m_star_equals_m_check", ()),
    ("serialize", "load", ()),
    ("serialize", "operator_to_json_dict", ()),
    ("gallery", "audit", ()),
    ("gallery", "random_theorem_form", ()),
    ("cli", "main", ()),
]

def _entry_bits(matrix):
    bits = 0
    for row in matrix:
        for v in row:
            if getattr(v, "is_exact", False):
                for part in (v.re, v.im):
                    bits = max(bits, part.numerator.bit_length(),
                               part.denominator.bit_length())
    return bits


def _side(matrix):
    rows = len(matrix)
    return max(rows, len(matrix[0]) if rows else 0)


class Tracer:
    def __init__(self):
        self.spans = []              # [name index, start, end, parent, round, op]
        self.names = []
        self.calls = defaultdict(int)
        self.excluded = defaultdict(float)
        self.stack = [-1]
        self.op = None
        self.rounds = 0
        self.record_operands = False
        self.max_dim = defaultdict(int)
        self.max_bits = defaultdict(int)
        self.operands = defaultdict(list)
        self.sampling_depth = 0
        self.sampling_seconds = 0.0
        self.samples_checked = 0
        self.sampling_exact_apply = 0
        self._plan = []

    def begin_round(self):
        """Called before each traced round (the set-up counts as one)."""
        self.rounds += 1
        self.record_operands = self.rounds == 1

    # -- installation ------------------------------------------------------------

    def install(self):
        """Bind every wrapper; the wrappers are built once, so spans from
        several installs share their names."""
        if not self._plan:
            self._plan = self._build_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._plan):
            setattr(owner, attr, orig)

    def _build_plan(self):
        import importlib
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "anop" or name.startswith("anop.")]
        plan = []
        for modname, path, stats in TARGETS:
            mod = importlib.import_module(f"anop.{modname}")
            owner, attr = mod, path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(mod, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{modname}.{path}", orig, stats)
            plan.append((owner, attr, orig, wrapper))
            if owner is mod:
                for other in modules:
                    for key, val in vars(other).items():
                        if val is orig and (other, key) != (mod, attr):
                            plan.append((other, key, orig, wrapper))
        return plan

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name, fn, stats):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, calls, clock = self.spans, self.stack, self.calls, \
            time.perf_counter
        tracer = self

        if "generator" in stats:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                return tracer._resumes(nid, fn(*args, **kwargs))
            return gen_wrapper

        def pre(args):
            if "dim" in stats:
                self.max_dim[nid] = max(self.max_dim[nid], _side(args[0]))
            if "bits" in stats:
                self.max_bits[nid] = max(self.max_bits[nid], _entry_bits(args[0]))
            if "distinct" in stats and self.record_operands:
                self.operands[nid].append(args[:1])
            if "distinct_pair" in stats and self.record_operands:
                self.operands[nid].append(args[:2])
            if "sampling_apply" in stats and self.sampling_depth:
                self.sampling_exact_apply += 1

        measured = bool(set(stats) & {"dim", "bits", "distinct", "distinct_pair",
                                      "sampling_apply"})
        sampling = "sampling" in stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            parent = stack[-1]
            if measured:
                h0 = clock()
                pre(args)
                tracer.excluded[parent] += clock() - h0
            if sampling:
                tracer.sampling_depth += 1
            span = [nid, 0.0, 0.0, parent, tracer.rounds, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if sampling:
                    tracer.sampling_depth -= 1
            if sampling:
                if tracer.sampling_depth == 0:
                    tracer.sampling_seconds += span[2] - span[1]
                ev = result.evidence
                tracer.samples_checked += int(ev.get("checked", ev.get("samples", 0)))
            return result
        return wrapper

    def _resumes(self, nid, gen):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        while True:
            span = [nid, 0.0, 0.0, stack[-1], self.rounds, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                span[2] = clock()
                stack.pop()
            yield item

    # -- results -----------------------------------------------------------------

    def self_times(self):
        child = defaultdict(float)
        for nid, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for idx, (nid, t0, t1, *_) in enumerate(self.spans):
            out[nid] += (t1 - t0) - child[idx] - self.excluded[idx]
        return out

    def _distinct_ratio(self, nid, to_json):
        groups = self.operands.get(nid, [])
        if not groups:
            return 0.0
        keys = {}
        seen = set()
        for ops in groups:
            ids = []
            for op in ops:
                if id(op) not in keys:
                    keys[id(op)] = json.dumps(to_json(op), sort_keys=True)
                ids.append(keys[id(op)])
            seen.add(tuple(ids))
        return len(seen) / len(groups)

    def metrics(self, names, to_json):
        """The named per-layer metrics, per traced round; `to_json` is the
        unwrapped operator serializer used to compare operands by their
        serialized form. An unknown name raises KeyError."""
        index = {n: i for i, n in enumerate(self.names)}
        per = max(self.rounds, 1)
        self_s = self.self_times()
        derived = {
            "predicates.samples_checked": self.samples_checked / per,
            "predicates.samples_per_s": (self.samples_checked / self.sampling_seconds
                                         if self.sampling_seconds > 0 else 0.0),
            "predicates.sampling.exact_apply_calls": self.sampling_exact_apply / per,
        }
        out = {}
        for name in names:
            if name in derived:
                out[name] = derived[name]
                continue
            base, _, stat = name.rpartition(".")
            nid = index[base]
            if stat == "calls":
                out[name] = self.calls[nid] / per
            elif stat == "self_ms":
                out[name] = 1000.0 * self_s[nid] / per
            elif stat == "max_dim":
                out[name] = self.max_dim[nid]
            elif stat == "max_entry_bits":
                out[name] = self.max_bits[nid]
            elif stat == "distinct_ratio":
                out[name] = self._distinct_ratio(nid, to_json)
            else:
                raise KeyError(name)
        return out

    def write(self, fh, label=None):
        """Appends the spans, one JSON line each, to an open text file;
        `label` replaces the round number (the set-up is labelled "setup")."""
        for nid, t0, t1, parent, rnd, op in self.spans:
            fh.write(json.dumps({"name": self.names[nid], "start": t0, "end": t1,
                                 "parent": parent, "round": label or rnd,
                                 "op": op}) + "\n")
