"""The four workloads: their inputs, made from the seed, and their jobs.

A job is one `tuttekit` command line, run in-process through
`tuttekit.cli.main`.  A subject is the arrangement or vector configuration a
job acts on, described here from first principles (rows of integers, family
tag, graph edges) so that the oracles in oracles.py never ask tuttekit
for anything.  Several jobs on one subject let the oracles check the paper's
identities between verbs.

Every round of a workload runs the same jobs in the same order, whatever the
seed; the seed only changes the entries, edges, equation scaling and
hyperplane order of the inputs.  So the share of failed jobs is the same in
every run.
"""

import json
import os
import random
from itertools import combinations

from exact import rank

# workload -> (reference kernel, one-line reason)
WORKLOADS = {
    "engines": ("python", "2^n central-subset walks (subset, delcon, activity, "
                "multivariate, arithmetic, toric) on fixed mid-size inputs; "
                "no point counting"),
    "lattice": ("python", "char, poset and invariants on flat-rich families "
                "(n 10-20); time goes to intersection_poset, closure and Mobius"),
    "pointcount": ("numpy", "finite-field tutte and coboundary with small "
                   "Hadamard floors, d 4-5; the numpy p^d point profile dominates"),
    "auto": ("python", "the CLI as users call it (no --method) on many short "
             "seeded jobs; routing, parsing, prime search, verified reduction"),
}

# The one known failure kept in a workload: `auto` sends every n > 10 to the
# finite-field method, which finds no verified primes for these fixed d = 4
# inputs with entries in [-2, 2] and exits 2.
EXPECTED_ERROR = "budget-exceeded"


class Subject:
    """An arrangement (rows = [(normal, offset)]) or a vector configuration
    (columns), plus what is known about it in closed form."""

    def __init__(self, key, dim, rows=None, columns=None, family=None,
                 graph=None, generic=None):
        self.key = key
        self.dim = dim
        self.rows = rows
        self.columns = columns
        self.family = family      # (tag, n) of a family with a closed-form chi
        self.graph = graph        # (vertices, edges), 1-indexed
        self.generic = generic    # (n, d): uniform matroid U_{d,n}


class Job:
    __slots__ = ("argv", "verb", "subject", "expect_error", "auto")

    def __init__(self, argv, verb, subject, expect_error=None):
        self.argv = argv
        self.verb = verb
        self.subject = subject
        self.expect_error = expect_error
        self.auto = "--method" not in argv and verb in (
            "tutte", "char", "coboundary", "invariants", "check")

    def label(self):
        return " ".join(os.path.basename(a) if os.sep in a else a
                        for a in self.argv)


# -- family rows, built here so that no oracle reads tuttekit -------------

def _unit(d, i, s=1):
    v = [0] * d
    v[i] = s
    return v


def _pair(d, i, j, sj):
    v = [0] * d
    v[i], v[j] = 1, sj
    return v


def family_rows(tag, n, d=None):
    """Rows of the family in tuttekit's documented order and coordinates."""
    pairs = list(combinations(range(n), 2))
    if tag == "braid":
        return [(_pair(n, i, j, -1), 0) for i, j in pairs]
    if tag == "threshold":
        return [(_pair(n, i, j, 1), 0) for i, j in pairs]
    if tag in ("bc", "dn"):
        rows = []
        for i, j in pairs:
            rows += [(_pair(n, i, j, -1), 0), (_pair(n, i, j, 1), 0)]
        if tag == "bc":
            rows += [(_unit(n, i), 0) for i in range(n)]
        return rows
    if tag == "shi":
        return [(_pair(n, i, j, -1), c) for i, j in pairs for c in (0, 1)]
    if tag == "catalan":
        return [(_pair(n, i, j, -1), c) for i, j in pairs for c in (-1, 0, 1)]
    if tag == "generic":
        return [([t ** k for k in range(d)], 0) for t in range(1, n + 1)]
    raise ValueError("no rows for family %r" % tag)


def family_subject(tag, n, d=None):
    rows = family_rows(tag, n, d)
    dim = d if tag == "generic" else n
    if tag == "generic":
        return Subject("%s(%d,%d)" % (tag, n, d), dim, rows=rows, generic=(n, d))
    graph = None
    if tag == "braid":
        graph = (n, [(i + 1, j + 1) for i, j in combinations(range(n), 2)])
    return Subject("%s(%d)" % (tag, n), dim, rows=rows, family=(tag, n),
                   graph=graph)


def family_argv(tag, n, d=None):
    argv = ["family", tag, "--n", str(n)]
    if d is not None:
        argv += ["--d", str(d)]
    return argv


# -- seeded inputs --------------------------------------------------------

def random_affine(rng, n, d, values):
    """n hyperplanes in Q^d with entries drawn from values, nonzero normals."""
    rows = []
    while len(rows) < n:
        normal = [rng.choice(values) for _ in range(d)]
        if any(normal):
            rows.append((normal, rng.choice(values)))
    return rows


def random_connected_graph(rng, vertices, edges):
    pool = list(combinations(range(1, vertices + 1), 2))
    while True:
        chosen = sorted(rng.sample(pool, edges))
        if _connected(vertices, chosen):
            rng.shuffle(chosen)
            return chosen


def _connected(vertices, edges):
    seen, stack = {1}, [1]
    while stack:
        v = stack.pop()
        for a, b in edges:
            for u, w in ((a, b), (b, a)):
                if u == v and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == vertices


def random_full_rank_config(rng, n, d, lo, hi):
    while True:
        cols = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(n)]
        if all(any(c) for c in cols) and rank(cols) == d:
            return cols


def rescaled(rng, rows):
    """Multiply each equation by a nonzero integer: the same arrangement,
    written differently."""
    out = []
    for nm, b in rows:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(([c * a for a in nm], c * b))
    return out


def permuted(rng, rows):
    """Shuffle the hyperplanes and flip the sign of some equations."""
    rows = [([-a for a in nm], -b) if rng.random() < 0.5 else (list(nm), b)
            for nm, b in rows]
    rng.shuffle(rows)
    return rows


def write_arrangement(path, dim, rows):
    record = {"dim": dim, "hyperplanes": [
        {"normal": [str(a) for a in nm], "offset": str(b)} for nm, b in rows]}
    with open(path, "w") as f:
        json.dump(record, f)
    return path


def write_config(path, dim, columns):
    with open(path, "w") as f:
        f.write("dim %d\n" % dim)
        for c in columns:
            f.write(" ".join(str(a) for a in c) + "\n")
    return path


def write_edges(path, edges):
    with open(path, "w") as f:
        for a, b in edges:
            f.write("%d %d\n" % (a, b))
    return path


# -- the workloads ---------------------------------------------------------

B3_ROOTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0],
            [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]]

ENGINE_METHODS = ("subset", "delcon", "activity")


def _engines(rng, workdir):
    jobs, subjects = [], []
    for tag, n, d in (("braid", 5, None), ("bc", 3, None), ("generic", 10, 4)):
        s = family_subject(tag, n, d)
        subjects.append(s)
        for m in ENGINE_METHODS:
            jobs.append(Job(family_argv(tag, n, d) + ["tutte", "--method", m],
                            "tutte", s.key))
        if tag == "bc":
            jobs.append(Job(family_argv(tag, n) + ["multivariate"],
                            "multivariate", s.key))
    for key, vertices, edges, verbs in (
            ("graph12", 7, 12, [("tutte", m) for m in ENGINE_METHODS]),
            ("graph9", 7, 9, [("multivariate", None)])):
        es = random_connected_graph(rng, vertices, edges)
        path = write_edges(os.path.join(workdir, key + ".txt"), es)
        rows = [(_pair(vertices, a - 1, b - 1, -1), 0) for a, b in es]
        subjects.append(Subject(key, vertices, rows=rows, graph=(vertices, es)))
        for verb, m in verbs:
            argv = ["family", "graphical", "--n", str(vertices), "--graph",
                    path, verb] + (["--method", m] if m else [])
            jobs.append(Job(argv, verb, key))
    b3 = write_config(os.path.join(workdir, "b3.txt"), 3, B3_ROOTS)
    subjects.append(Subject("B3", 3, columns=B3_ROOTS))
    jobs += [Job(["arith", "tutte", "--input", b3], "arith-tutte", "B3"),
             Job(["arith", "zonotope", "--input", b3], "zonotope", "B3"),
             Job(["toric", "--input", b3, "--q", "4"], "toric", "B3"),
             Job(["toric", "--input", b3, "--q", "12"], "toric", "B3")]
    cols = random_full_rank_config(rng, 7, 3, -2, 2)
    vc = write_config(os.path.join(workdir, "vc7.txt"), 3, cols)
    subjects.append(Subject("vc7", 3, columns=cols))
    jobs += [Job(["arith", "tutte", "--input", vc], "arith-tutte", "vc7"),
             Job(["arith", "zonotope", "--input", vc], "zonotope", "vc7")]
    return jobs, subjects


def _family_file_jobs(rng, workdir, members, verbs, rewrite, extra=()):
    jobs, subjects = [], []
    for tag, n in members:
        s = family_subject(tag, n)
        subjects.append(s)
        path = write_arrangement(os.path.join(workdir, s.key + ".json"),
                                 s.dim, rewrite(rng, s.rows))
        for verb in verbs:
            jobs.append(Job([verb, "--input", path] + list(extra), verb, s.key))
    return jobs, subjects


def _lattice(rng, workdir):
    # The hyperplane order is kept: the cost of intersection_poset depends on
    # it (D_5's `poset` took 1.93-2.22 s over four orders), which would make
    # the seed, not the program, move solve_s.
    jobs, subjects = [], []
    for members, verbs in (
            ([("braid", 6), ("bc", 4), ("shi", 5), ("catalan", 4)], ("char", "poset")),
            ([("dn", 5)], ("poset",)),
            ([("dn", 4), ("shi", 4), ("braid", 5)], ("invariants",))):
        more_jobs, more_subjects = _family_file_jobs(rng, workdir, members, verbs,
                                                     rescaled)
        jobs += more_jobs
        subjects += more_subjects
    return jobs, subjects


def _pointcount(rng, workdir):
    return _family_file_jobs(
        rng, workdir,
        [("braid", 5), ("threshold", 5), ("dn", 5), ("bc", 4), ("shi", 4),
         ("catalan", 4)],
        ("tutte", "coboundary"), permuted, extra=("--method", "finite-field"))


# (d, n) of the seeded affine arrangements of `auto`.  Entries
# lie in {-1, 0, 1}, so every Hadamard floor is at most 56 and certified
# primes always fit the default budget; n > 10 only with d <= 3 keeps the
# finite-field route short.  For d = 4 the entries are +-1, so the floor is
# exactly 56 and `check` counts points mod 59 whatever the seed: the peak
# memory of the workload does not depend on the seed.
AUTO_SHAPES = ((2, 5), (2, 8), (2, 11), (2, 13), (3, 6), (3, 9), (3, 12),
               (3, 13), (4, 7), (4, 10))
AUTO_VERBS = ("tutte", "char", "coboundary", "invariants", "check")
# Fixed inputs (independent of the seed) for the known routing failure:
# d = 4, entries in [-2, 2], drawn once from this seed string.
AUTO_FAILING = (("fail11", 11),)
AUTO_FAILING_SEED = "auto-fixed-a"


def _auto(rng, workdir):
    jobs, subjects = [], []
    for k, (d, n) in enumerate(AUTO_SHAPES):
        key = "affine%d_d%d_n%d" % (k, d, n)
        rows = random_affine(rng, n, d, (-1, 1) if d == 4 else (-1, 0, 1))
        path = write_arrangement(os.path.join(workdir, key + ".json"), d, rows)
        subjects.append(Subject(key, d, rows=rows))
        for verb in AUTO_VERBS:
            jobs.append(Job([verb, "--input", path], verb, key))
    s = family_subject("generic", 11, 4)
    subjects.append(s)
    for verb in ("tutte", "char", "invariants"):
        jobs.append(Job(family_argv("generic", 11, 4) + [verb], verb, s.key))
    fixed = random.Random(AUTO_FAILING_SEED)
    for key, n in AUTO_FAILING:
        rows = random_affine(fixed, n, 4, (-2, -1, 0, 1, 2))
        path = write_arrangement(os.path.join(workdir, key + ".json"), 4, rows)
        subjects.append(Subject(key, 4, rows=rows))
        for verb in ("tutte", "char", "coboundary", "invariants"):
            err = EXPECTED_ERROR if verb in ("tutte", "coboundary") else None
            jobs.append(Job([verb, "--input", path], verb, key, err))
    return jobs, subjects


_BUILDERS = {"engines": _engines, "lattice": _lattice,
             "pointcount": _pointcount, "auto": _auto}


def build(workload, seed, workdir):
    """Write the inputs of one workload under workdir; return (jobs, subjects)."""
    rng = random.Random("%s-%d" % (workload, seed))
    jobs, subjects = _BUILDERS[workload](rng, workdir)
    return jobs, {s.key: s for s in subjects}
