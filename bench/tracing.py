"""Per-layer tracing by wrapping tuttekit's public functions from outside.

Modules bind each other's names with `from ... import` (cli binds
tutte_subset, coboundary_ffm, select_primes, point_profile and
intersection_poset; tutte binds intersection_poset; arrangement binds
rank_rows; arithmetic binds rank_int), so a wrapper replaces the function
in every tuttekit module that bound it, and methods on their class.

Each call opens a frame on a stack.  When it ends, its duration is added to
its name's inclusive time (unless the name is already active further up,
so recursion is not counted twice) and its self time, the duration minus
the time covered by wrapped calls inside it.  Calls of layer entry points
are also kept as spans (name, start, end, parent span, job id) in memory
and written out at the end; the hottest leaf calls (rank kernels, MultiPoly
ops, is_central, rank_normals, closure, multiplicity) are counted and timed
but not kept as spans, which bounds memory.
"""

import json
import time
from collections import defaultdict

# (module, qualified name, hot): hot names are aggregated, not kept as spans.
TARGETS = [
    ("cli", "main", False),
    ("linalg", "rank_int", True),
    ("linalg", "rank_mod_p", True),
    ("arrangement", "Arrangement.is_central", True),
    ("arrangement", "Arrangement.rank_normals", True),
    ("arrangement", "Arrangement.semimatroid", False),
    ("arrangement", "Arrangement.delete", False),
    ("arrangement", "Arrangement.contract", False),
    ("arrangement", "Arrangement.restrict", False),
    ("tutte", "tutte_subset", False),
    ("tutte", "tutte_delcon", False),
    ("tutte", "tutte_activity", False),
    ("tutte", "char_poly", False),
    ("tutte", "scalar_invariants", False),
    ("tutte", "coboundary_transform", False),
    ("tutte", "tutte_from_coboundary", False),
    ("multipoly", "MultiPoly.__add__", True),
    ("multipoly", "MultiPoly.__mul__", True),
    ("multipoly", "MultiPoly.substitute", True),
    ("poset", "intersection_poset", False),
    ("poset", "closure", True),
    ("poset", "IntersectionPoset.verify_mobius", False),
    ("finite_field", "select_primes", False),
    ("finite_field", "reduce_mod_p", False),
    ("finite_field", "point_profile", False),
    ("finite_field", "coboundary_ffm", False),
    ("interpolation", "interpolate_in_X", False),
    ("arithmetic", "arithmetic_tutte", False),
    ("arithmetic", "multiplicity", True),
    ("arithmetic", "multivariate_tutte", False),
    ("arithmetic", "toric_point_profile", False),
]

# Method aliases bound at class creation (`__radd__ = __add__`).
_ALIASES = {"MultiPoly.__add__": ("__radd__",), "MultiPoly.__mul__": ("__rmul__",)}

_LINALG = ("linalg.rank_int", "linalg.rank_mod_p")


class _Agg:
    __slots__ = ("calls", "incl", "self_s", "no_linalg")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.no_linalg = 0


class Tracer:
    """Install wrappers with `install()`, remove them with `uninstall()`."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in
                        ("cli", "linalg", "arrangement", "tutte", "multipoly",
                         "poset", "finite_field", "interpolation", "arithmetic")}
        self.spans = []
        self.job = None
        self._stack = []        # [name, start, child_s, linalg_calls, span_id]
        self._active = defaultdict(int)
        self._patches = []
        self.reset()

    # -- bookkeeping -------------------------------------------------------

    def reset(self):
        self.agg = defaultdict(_Agg)
        self.extra = defaultdict(float)
        self.job_engines = set()

    def begin_job(self, job_id):
        self.job = job_id
        self.job_engines = set()

    def _enter(self, name, hot):
        span_id = None
        if not hot:
            span_id = len(self.spans)
            parent = self._stack[-1][4] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.job])
        frame = [name, time.perf_counter(), 0.0, 0, span_id]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, linalg_calls, span_id = frame
        self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        a = self.agg[name]
        a.calls += 1
        a.self_s += dur - child
        if not self._active[name]:
            a.incl += dur
        if not linalg_calls:
            a.no_linalg += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent[3] += linalg_calls + (name in _LINALG)
        if span_id is not None:
            self.spans[span_id][1] = start
            self.spans[span_id][2] = end
        return dur

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hot):
        tracer = self
        hook = getattr(self, "_after_" + name.split(".")[-1].strip("_"), None)

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, hot)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = tracer._exit(frame)
                if hook is not None:
                    hook(args, kwargs, result if ok else None, ok, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod_name, qual, hot in TARGETS:
            name = "%s.%s" % (mod_name, qual.split(".")[-1])
            module = self.modules[mod_name]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                w = self._wrap(name, orig, hot)
                for a in (attr,) + _ALIASES.get(qual, ()):
                    self._patches.append((cls, a, cls.__dict__[a]))
                    setattr(cls, a, w)
            else:
                orig = getattr(module, qual)
                w = self._wrap(name, orig, hot)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, w)

    def uninstall(self):
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches = []

    # -- hooks that record counts from arguments and results ------------------

    def _after_coboundary_ffm(self, args, kwargs, result, ok, dur):
        self.job_engines.add("ffm")

    def _after_tutte_subset(self, args, kwargs, result, ok, dur):
        self.job_engines.add("subset")

    def _after_intersection_poset(self, args, kwargs, result, ok, dur):
        if ok:
            self.extra["poset.flats"] += len(result.flats)

    def _after_reduce_mod_p(self, args, kwargs, result, ok, dur):
        self.extra["finite_field.primes_accepted" if ok
                   else "finite_field.primes_rejected"] += 1
        if self._stack and self._stack[-1][0] == "finite_field.select_primes":
            self.extra["finite_field.reduce_in_select_s"] += dur

    def _after_point_profile(self, args, kwargs, result, ok, dur):
        modarr = args[0]
        p, d, n = modarr.prime, modarr.dim, len(modarr.rows)
        rng = args[2] if len(args) > 2 else kwargs.get("x1_range")
        slices = p if rng is None else rng[1] - rng[0]
        self.extra["finite_field.points"] += slices * p ** max(d - 1, 0)
        computed = 4 * n * p ** max(d - 1, 0)
        if computed > self.extra["finite_field.profile_bytes"]:
            self.extra["finite_field.profile_bytes"] = computed

    # -- results -----------------------------------------------------------

    def metrics(self, auto_subset_jobs, auto_ffm_jobs):
        """Per-layer figures of everything traced since the last reset()."""
        A = self.agg
        e = self.extra

        def incl(*names):
            return sum(A[n].incl for n in names if n in A)

        def calls(*names):
            return sum(A[n].calls for n in names if n in A)

        arr_calls = calls("arrangement.is_central", "arrangement.rank_normals")
        arr_hits = sum(A[n].no_linalg for n in
                       ("arrangement.is_central", "arrangement.rank_normals")
                       if n in A)
        tried = e["finite_field.primes_accepted"] + e["finite_field.primes_rejected"]
        profile_s = incl("finite_field.point_profile")
        select_s = incl("finite_field.select_primes")
        mp = ("multipoly.__add__", "multipoly.__mul__", "multipoly.substitute")
        return {
            "cli.self_s": (A["cli.main"].self_s, "s"),
            "cli.auto_subset_jobs": (auto_subset_jobs, "count"),
            "cli.auto_ffm_jobs": (auto_ffm_jobs, "count"),
            "linalg.rank_calls": (calls(*_LINALG), "count"),
            "linalg.rank_s": (incl(*_LINALG), "s"),
            "arrangement.rank_normals_calls": (calls("arrangement.rank_normals"), "count"),
            "arrangement.is_central_calls": (calls("arrangement.is_central"), "count"),
            "arrangement.cache_hit_ratio": (arr_hits / arr_calls if arr_calls else 0.0,
                                            "ratio"),
            "arrangement.semimatroid_calls": (calls("arrangement.semimatroid"), "count"),
            "arrangement.semimatroid_s": (incl("arrangement.semimatroid"), "s"),
            "arrangement.minor_s": (incl("arrangement.delete", "arrangement.contract",
                                         "arrangement.restrict"), "s"),
            "tutte.subset_s": (incl("tutte.tutte_subset"), "s"),
            "tutte.delcon_s": (incl("tutte.tutte_delcon"), "s"),
            "tutte.activity_s": (incl("tutte.tutte_activity"), "s"),
            "tutte.char_s": (incl("tutte.char_poly"), "s"),
            "tutte.invariants_s": (incl("tutte.scalar_invariants"), "s"),
            "tutte.transform_s": (incl("tutte.coboundary_transform",
                                       "tutte.tutte_from_coboundary"), "s"),
            "multipoly.add_calls": (calls("multipoly.__add__"), "count"),
            "multipoly.mul_calls": (calls("multipoly.__mul__"), "count"),
            "multipoly.substitute_calls": (calls("multipoly.substitute"), "count"),
            "multipoly.self_s": (sum(A[n].self_s for n in mp if n in A), "s"),
            "poset.build_s": (incl("poset.intersection_poset"), "s"),
            "poset.flats": (int(e["poset.flats"]), "count"),
            "poset.closure_calls": (calls("poset.closure"), "count"),
            "poset.closure_s": (incl("poset.closure"), "s"),
            "poset.verify_s": (incl("poset.verify_mobius"), "s"),
            "finite_field.select_s": (select_s, "s"),
            "finite_field.prime_search_s": (
                select_s - e["finite_field.reduce_in_select_s"], "s"),
            "finite_field.reduce_s": (incl("finite_field.reduce_mod_p"), "s"),
            "finite_field.primes_accepted": (int(e["finite_field.primes_accepted"]),
                                             "count"),
            "finite_field.primes_rejected": (int(e["finite_field.primes_rejected"]),
                                             "count"),
            "finite_field.prime_yield": (
                e["finite_field.primes_accepted"] / tried if tried else 0.0, "ratio"),
            "finite_field.profile_s": (profile_s, "s"),
            "finite_field.points": (int(e["finite_field.points"]), "count"),
            "finite_field.points_per_s": (
                e["finite_field.points"] / profile_s if profile_s else 0.0, "1/s"),
            "finite_field.profile_bytes": (int(e["finite_field.profile_bytes"]),
                                           "B_computed"),
            "interpolation.s": (incl("interpolation.interpolate_in_X"), "s"),
            "arithmetic.tutte_s": (incl("arithmetic.arithmetic_tutte"), "s"),
            "arithmetic.multiplicity_calls": (calls("arithmetic.multiplicity"), "count"),
            "arithmetic.multivariate_s": (incl("arithmetic.multivariate_tutte"), "s"),
            "arithmetic.toric_s": (incl("arithmetic.toric_point_profile"), "s"),
        }

    def write_spans(self, path):
        """One JSON list per line: [name, start, end, parent span, job id]."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
