"""The three workloads: seeded set-up, one job, and the output check.

A workload's set-up builds a pool of jobs from the seed: ``CYCLES`` repeats
of a fixed cycle of job kinds, each repeat with fresh seeded parameters.
The timed loop runs whole cycles, so every run sees the same mix of kinds
and only the seeded coefficients differ between seeds.

Every job's output is checked two ways.  On any seed, exact invariants
computed by the benchmark's own code (``check``).  On the default seed, a
digest of the canonical output (verdicts, reasons, witnesses, kernel basis
in order, serialized JSON) is compared with ``golden.json``, recorded from
the commit that defined the benchmark.  On any seed, a job that runs twice
must give the same digest, and ``compare.py`` requires the two versions it
compares to give the same digests.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import gen

DEFAULT_SEED = 0
CYCLES = 8

# Job sizes are chosen so that a run holds enough jobs for a tail
# percentile, and the slowest kind is common enough that the tail falls
# inside it on every seed.  Larger sizes take far longer (2-core VM,
# Python 3.11.7): solve at n=8 and n=10 takes 2.6 s and 9.5 s, enumeration
# at n=5 and n=7 1.5 s and 17 s.
CLASSIFY_CYCLE = (("solve", 6), ("enum", 4), ("solve", 6), ("solve", 6))
# A criterion-9 instance (one 4-dim phase space) and a criterion-6 instance
# (phase spaces of dim 2, 4 and 6, from dendriform algebras of dim C6_DIMS)
# each take about 0.6 s.  So bridge job times form one cluster, and their
# median and tail do not jump between kinds from run to run (one phase
# space per job would take 0.01, 0.1 or 0.5 s).
BRIDGE_CYCLE = ("c9", "c6")
C6_DIMS = (1, 2, 3)


class Job:
    __slots__ = ("kind", "data", "inputs", "expect")

    def __init__(self, kind, data, inputs=None, expect=None):
        self.kind, self.data, self.inputs, self.expect = kind, data, inputs, expect


def digest(value):
    text = value if isinstance(value, bytes) else json.dumps(value).encode()
    return hashlib.sha256(text).hexdigest()


# -- library objects from generated data -----------------------------------


def algebra(lab, dim, brackets):
    S = lab.Scalar
    return lab.LeibnizAlgebra.from_brackets(
        dim, {ij: {k: S.of(c) for k, c in v.items()} for ij, v in brackets.items()})


def dendriform(lab, dim, left, right):
    z = lab.Scalar.zero()
    tensors = []
    for product in (left, right):
        t = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in product.items():
            for k, c in value.items():
                t[i][j][k] = lab.Scalar.of(c)
        tensors.append(t)
    return lab.DendriformAlgebra.from_constants(*tensors)


def matrix(lab, rows):
    return lab.Matrix.from_rows([[lab.Scalar.of(e) for e in row] for row in rows])


def diag(lab, *signs):
    return lab.Matrix.diagonal([lab.Scalar.of(s) for s in signs])


# -- canonical output (public accessors and str(), i.e. format_scalar) -----


def mat_text(M):
    return [[str(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def alg_text(A):
    return [[[str(c) for c in A.bracket_basis(i, j)] for j in range(A.dim)]
            for i in range(A.dim)]


def dend_text(D):
    e = D.basis_vector
    return [[[str(c) for c in D.left(e(i), e(j)) + D.right(e(i), e(j))]
             for j in range(D.dim)] for i in range(D.dim)]


def verdict_text(check):
    return [check.ok, check.reason, check.indices,
            [str(c) for c in check.lhs or []], [str(c) for c in check.rhs or []]]


def to_fraction(x):
    return Fraction(str(x))


# -- exact linear algebra for the checks (independent of the library) ------


def fraction_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / p[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def symplectic_rows(dim, brackets):
    """Constraint rows of the symplectic identity on the last column b of B
    for a nilpotent algebra: c_ij b_k = -c_ik b_j + (c_jk + c_kj) b_i."""
    def c(i, j):
        return brackets.get((i, j), {}).get(dim - 1, 0)
    rows = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                row = [Fraction(0)] * dim
                row[k] += c(i, j)
                row[j] += c(i, k)
                row[i] -= c(j, k) + c(k, j)
                rows.append(row)
    return rows


def check_symplectic_basis(dim, brackets, basis, sample):
    """Every member is symmetric and satisfies the identity, the members are
    independent, and their number is the solution-space dimension: the
    upper triangle off the last index is free, the last column b solves
    ``symplectic_rows``."""
    rows = symplectic_rows(dim, brackets)
    expected = dim * (dim - 1) // 2 + dim - fraction_rank(rows)
    coords = []
    for B in [*basis, *([sample] if sample is not None else [])]:
        F = [[to_fraction(B[i, j]) for j in range(dim)] for i in range(dim)]
        if any(F[i][j] != F[j][i] for i in range(dim) for j in range(dim)):
            return False
        b = [F[i][dim - 1] for i in range(dim)]
        if any(sum(r * x for r, x in zip(row, b)) for row in rows):
            return False
        coords.append([F[i][j] for i in range(dim) for j in range(i, dim)])
    if sample is not None and fraction_rank(
            [[to_fraction(sample[i, j]) for j in range(dim)] for i in range(dim)]) != dim:
        return False
    return len(basis) == expected and fraction_rank(coords[:len(basis)]) == expected


# -- classify: solve_symplectic_space and enumerate_diagonal_products ------


def classify_pool(lab, rng):
    pool = []
    for _ in range(CYCLES):
        for kind, dim in CLASSIFY_CYCLE:
            brackets = gen.nilpotent_algebra(rng, dim)
            pool.append(Job(kind, (dim, brackets, rng.randint(0, 10 ** 6)),
                            algebra(lab, dim, brackets)))
    return pool


def classify_run(lab, job):
    if job.kind == "solve":
        return lab.solve_symplectic_space(job.inputs, seed=job.data[2])
    return lab.enumerate_diagonal_products(job.inputs)


def classify_check(job, out):
    dim, brackets, _ = job.data
    if job.kind == "solve":
        basis, sample = out
        ok = check_symplectic_basis(dim, brackets, basis, sample)
        text = [[mat_text(B) for B in basis],
                mat_text(sample) if sample is not None else None]
    else:
        diagonals = [[int(to_fraction(E[i, i])) for i in range(dim)] for E, _ in out]
        ok = diagonals == gen.diagonal_products(brackets, dim) and all(
            report.is_product for _, report in out)
        text = [mat_text(E) for E, _ in out]
    return ok, digest(text)


# -- bridge: the criterion-9 and criterion-6 chains ------------------------


def bridge_pool(lab, rng):
    pool = []
    for _ in range(CYCLES):
        for kind in BRIDGE_CYCLE:
            if kind == "c9":
                p, a = gen.skew_dendriform(rng)
                inputs = (dendriform(lab, 2, *gen.skew_products(p)),
                          matrix(lab, [[0, a], [-a, 0]]), diag(lab, 1, 1, -1, -1))
                pool.append(Job(kind, (p, a), inputs))
            else:
                inputs = []
                for dim in C6_DIMS:
                    left, right = gen.nilpotent_dendriform(rng, dim)
                    inputs.append((dendriform(lab, dim, left, right),
                                   diag(lab, *([1] * dim + [-1] * dim))))
                pool.append(Job(kind, C6_DIMS, inputs))
    return pool


def bridge_run(lab, job):
    if job.kind == "c9":
        D, omega, E = job.inputs
        P, J = lab.omega_to_J(D, omega)
        checks = [lab.check_complex_product_pair(P.total, J, E),
                  lab.check_pseudo_kahler(P.total, P.form, J)]
        Ac, Bc, Ec = lab.complexify_pseudo_kahler(P.total, P.form, J)
        checks.append(lab.check_para_kahler(Ac, Bc, Ec))
        Ar, Br, Jr = lab.realify(Ac, Bc, Ec)
        checks.append(lab.check_pseudo_kahler(Ar, Br, Jr))
        return checks, (P.total, J, Ac, Bc, Ec, Ar, Br, Jr)
    checks, objects = [], []
    for D, E in job.inputs:
        P = lab.build_phase_space(D)
        base, dual = P.base_subspace(), P.dual_subspace()
        checks += [lab.verify_symplectic(P.total, P.form),
                   lab.verify_phase_space(P, base, dual),
                   lab.check_para_kahler(P.total, P.form, E)]
        big = lab.symplectic_to_dendriform(P.total, P.form)
        checks.append(lab.verify_manin_triple(big, P.form, base, dual))
        objects.append((P.total, P.form, big))
    return checks, objects


def bridge_check(job, out):
    checks, objects = out
    ok = all(c.ok for c in checks)
    if job.kind == "c9":
        brackets, _, J = gen.skew_phase_space(*job.data)
        total = objects[0]
        ok = ok and [[to_fraction(objects[1][i, j]) for j in range(4)]
                     for i in range(4)] == J
        ok = ok and all(to_fraction(c) == brackets.get((i, j), {}).get(k, 0)
                        for i in range(4) for j in range(4)
                        for k, c in enumerate(total.bracket_basis(i, j)))
        total, J, Ac, Bc, Ec, Ar, Br, Jr = objects
        text = [alg_text(total), mat_text(J), alg_text(Ac), mat_text(Bc),
                mat_text(Ec), alg_text(Ar), mat_text(Br), mat_text(Jr)]
    else:
        text = [[alg_text(total), mat_text(form), dend_text(big)]
                for total, form, big in objects]
    return ok, digest([[verdict_text(c) for c in checks], text])


# -- cli: one fresh leibniz-lab process per job ----------------------------


def q(x):
    """Serialized rational, in the library's canonical form."""
    return str(Fraction(x))


def qi(re, im):
    """Serialized Gaussian rational, in the library's canonical form."""
    re, im = Fraction(re), Fraction(im)
    if im == 0:
        return q(re)
    imag = ("i" if abs(im) == 1 else q(abs(im)) + "*i")
    sign = "-" if im < 0 else ("+" if re != 0 else "")
    return (q(re) if re != 0 else "") + sign + imag


def algebra_doc(dim, brackets, field="Q", fmt=q):
    entries = [{"i": i, "j": j, "value": [{"k": k, "c": fmt(c)}
                                          for k, c in sorted(v.items())]}
               for (i, j), v in sorted(brackets.items())]
    return {"dim": dim, "field": field, "brackets": entries}


def dendriform_doc(dim, left, right):
    return {"dim": dim, "left": algebra_doc(dim, left)["brackets"],
            "right": algebra_doc(dim, right)["brackets"]}


def matrix_doc(rows, field=None, fmt=q):
    doc = {"matrix": [[fmt(e) for e in row] for row in rows]}
    if field:
        doc["field"] = field
    return doc


def _malformed(rng, variant):
    """(command, documents) of a malformed input that must exit 2."""
    dim = 3
    good = algebra_doc(dim, gen.nilpotent_algebra(rng, dim))
    if variant == 0:
        return ["verify", "leibniz"], [json.dumps(good)[:-rng.randint(2, 9)]]
    if variant == 1:
        return ["verify", "symplectic"], [dict(good, field="R"),
                                          matrix_doc([[1] * dim] * dim)]
    if variant == 2:
        good["brackets"].append({"i": 0, "j": 0, "value": [
            {"k": dim - 1, "c": "%d*i" % gen.nonzero(rng)}]})
        return ["solve", "symplectic"], [good]
    if variant == 3:
        return ["verify", "leibniz"], [{"brackets": good["brackets"]}]
    good["brackets"].append({"i": dim + rng.randint(0, 5), "j": 0, "value": []})
    return ["verify", "leibniz"], [good]


def cli_cycle(rng, cycle):
    """One cycle of (command, documents, expected exit code)."""
    jobs = []

    def add(command, docs, code):
        jobs.append((command, docs, code))

    add(["verify", "leibniz"], [algebra_doc(5, gen.nilpotent_algebra(rng, 5))], 0)
    add(["verify", "leibniz"], [algebra_doc(4, gen.non_leibniz(rng, 4))], 1)
    brackets, B, J = gen.skew_phase_space(*gen.skew_dendriform(rng))
    add(["verify", "symplectic"], [algebra_doc(4, brackets), matrix_doc(B)], 0)
    c = gen.nonzero(rng)
    add(["verify", "symplectic"], [algebra_doc(3, gen.sl2(rng)), matrix_doc(
        [[c if i == j else 0 for j in range(3)] for i in range(3)])], 1)
    add(["verify", "dendriform"], [dendriform_doc(4, *gen.nilpotent_dendriform(rng, 4))], 0)
    add(["verify", "dendriform"], [dendriform_doc(2, *gen.non_dendriform(rng))], 1)
    heis = gen.heisenberg_like(rng)
    for want in (True, False):
        signs = gen.product_signs(rng, heis, want)
        E = [[signs[i] if i == j else 0 for j in range(4)] for i in range(4)]
        add(["classify", "product"], [algebra_doc(4, heis), matrix_doc(E)],
            0 if want else 1)
    squares = gen.squares_algebra(rng)
    add(["classify", "complex"], [algebra_doc(4, squares),
                                  matrix_doc(rng.choice(gen.SQUARES_COMPLEX))], 0)
    add(["classify", "complex"], [algebra_doc(4, gen.squares_algebra(rng)),
                                  matrix_doc(gen.SQUARES_NOT_COMPLEX)], 1)
    add(["construct", "phase-space"], [dendriform_doc(3, *gen.nilpotent_dendriform(rng, 3))], 0)
    brackets, B, J = gen.skew_phase_space(*gen.skew_dendriform(rng))
    add(["construct", "complexify"], [algebra_doc(4, brackets), matrix_doc(B),
                                      matrix_doc(J)], 0)
    brackets, B, J = gen.skew_phase_space(*gen.skew_dendriform(rng))
    # E = -iJ over Q(i): the input of realify is complexify's output.
    add(["construct", "realify"],
        [algebra_doc(4, brackets, "Q(i)", lambda c: qi(c, 0)),
         matrix_doc(B, "Q(i)", lambda c: qi(c, 0)),
         matrix_doc(J, "Q(i)", lambda c: qi(0, -c))], 0)
    for dim in (4, 5, 6):
        add(["solve", "symplectic"], [algebra_doc(dim, gen.nilpotent_algebra(rng, dim))], 0)
    gaussian = {ij: {k: (c, gen.nonzero(rng)) for k, c in v.items()}
                for ij, v in gen.nilpotent_algebra(rng, 4).items()}
    add(["verify", "leibniz"], [algebra_doc(4, gaussian, "Q(i)",
                                            lambda c: qi(*c))], 0)
    add(*_malformed(rng, cycle % 5), 2)
    return jobs


def cli_corpus(rng):
    """The corpus in memory: (command, document texts, expected exit code,
    seed) per job."""
    corpus = []
    for cycle in range(CYCLES):
        for command, docs, code in cli_cycle(rng, cycle):
            texts = [doc if isinstance(doc, str) else json.dumps(doc) for doc in docs]
            corpus.append((command, texts, code, rng.randint(0, 10 ** 6)))
    return corpus


def cli_pool(corpus, workdir):
    """Write the corpus under ``workdir`` and return the jobs."""
    pool, count = [], 0
    for command, texts, code, seed in corpus:
        paths = []
        for text in texts:
            path = os.path.join(workdir, "doc%05d.json" % count)
            count += 1
            with open(path, "w") as handle:
                handle.write(text)
            paths.append(path)
        pool.append(Job("cli", command + paths + ["--seed", str(seed)], expect=code))
    return pool


CLI_MAIN = "import sys; from leibniz_lab.cli import main; sys.exit(main())"


class CliRunner:
    """Runs a job as a fresh process; ``prefix`` selects plain or traced."""

    def __init__(self, root, workdir, prefix=None):
        self.root, self.workdir = root, workdir
        self.prefix = prefix or [sys.executable, "-c", CLI_MAIN]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.peak_kb = 0
        self.bytes_out = 0

    def __call__(self, job):
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(self.prefix + job.data, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            stdout, stderr = out.read(), err.read()
        # Error messages quote document paths, which live in a temp dir.
        stdout = stdout.replace(self.workdir.encode(), b"<docs>")
        self.bytes_out += len(stdout)
        return proc.returncode, stdout, stderr


def cli_check(job, out):
    code, stdout, stderr = out
    ok = code == job.expect and not stderr
    try:
        verdict = json.loads(stdout)
        ok = ok and verdict["ok"] == (code == 0)
    except (ValueError, KeyError, TypeError):
        ok = False
    return ok, digest(b"%d\n" % code + stdout)


# -- dispatch --------------------------------------------------------------


class Workload:
    """Pool of jobs plus how to run and check one of them."""

    def __init__(self, name, root, seed, workdir):
        import leibniz_lab as lab
        self.name, self.lab = name, lab
        rng = random.Random("%s:%d" % (name, seed))
        if name == "classify":
            self.pool, self.cycle = classify_pool(lab, rng), len(CLASSIFY_CYCLE)
            self.run, self.check = lambda job: classify_run(lab, job), classify_check
        elif name == "bridge":
            self.pool, self.cycle = bridge_pool(lab, rng), len(BRIDGE_CYCLE)
            self.run, self.check = lambda job: bridge_run(lab, job), bridge_check
        elif name == "cli":
            # Without a workdir the corpus stays in memory (set-up timing).
            corpus = cli_corpus(rng)
            self.pool = cli_pool(corpus, workdir) if workdir else corpus
            self.cycle = len(self.pool) // CYCLES
            self.run, self.check = CliRunner(root, workdir), cli_check
        else:
            raise ValueError("unknown workload %r" % name)


NAMES = ("classify", "bridge", "cli")
