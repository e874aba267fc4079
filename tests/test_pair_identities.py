"""The pair identities and representation constructions against the
closures they replaced.

The ``ref_*`` functions below keep the code that ran before every identity
over basis pairs became an equation of sparse tensors: dense brackets,
``Matrix.apply`` and the action matrices l(x), r(x) assembled by linearity
on every basis pair, fed to ``first_failure`` (kept in
``test_term_tables.py``).  The rewritten verifiers must agree with them on
the verdict, reason, indices and both witness sides, and the constructions
on every entry and its kind, over Q and Q(i), with diagonal +-1 operators,
rectangular Rota-Baxter operators and empty operators and modules.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from conftest import (basis_vectors, dense, random_dendriform,
                      random_dendriform_with_skew, random_invariant_skew,
                      vadd)
from test_term_tables import first_failure, outcome, typed
from leibniz_lab import (DendriformAlgebra, J_from_phi, LeibnizAlgebra,
                         Representation, bowtie_algebra, bracket_J,
                         compatible_dendriform_from_invertible_rb,
                         dendriform_rep, dual_rep, induced_dendriform_on_eigenspaces,
                         omega_to_J, rb_to_dendriform, regular_rep,
                         semidirect_product, verify_nijenhuis,
                         verify_representation, verify_rota_baxter)
from leibniz_lab import kahler, structures
from leibniz_lab.errors import LeibnizLabError
from leibniz_lab.leibniz import tensor_from, tensor_product, transport, unit
from leibniz_lab.linalg import Matrix, invert, is_singular, rank
from leibniz_lab.scalars import GAUSSIAN, RATIONAL, Scalar

# -- the closures the sparse equations replaced --------------------------------


def vsub(x, y):
    return [a - b for a, b in zip(x, y)]


def ref_nijenhuis(A, N):
    e = [A.basis_vector(i) for i in range(A.dim)]
    ne = [N.apply(x) for x in e]

    def sides(i, j):
        inner = vsub(vadd(A.bracket(ne[i], e[j]), A.bracket(e[i], ne[j])),
                     N.apply(A.bracket_basis(i, j)))
        yield "NIJENHUIS_FAILS", A.bracket(ne[i], ne[j]), N.apply(inner)

    return first_failure(A.dim, 2, sides)


def ref_strict_abelian(A, M, sign):
    e = [A.basis_vector(i) for i in range(A.dim)]
    me = [M.apply(x) for x in e]

    def strict(i, j):
        m_of_bracket = M.apply(A.bracket_basis(i, j))
        yield "STRICT", m_of_bracket, A.bracket(me[i], e[j])
        yield "STRICT", m_of_bracket, A.bracket(e[i], me[j])

    def abelian(i, j):
        rhs = A.bracket(me[i], me[j])
        yield "ABELIAN", A.bracket_basis(i, j), (
            rhs if sign > 0 else [-c for c in rhs])

    return (first_failure(A.dim, 2, strict).ok,
            first_failure(A.dim, 2, abelian).ok)


def ref_integrability(A, J):
    e = [A.basis_vector(i) for i in range(A.dim)]
    je = [J.apply(x) for x in e]

    def sides(i, j):
        yield ("INTEGRABILITY_FAILS", J.apply(A.bracket_basis(i, j)),
               vadd(vadd(A.bracket(je[i], e[j]), A.bracket(e[i], je[j])),
                    J.apply(A.bracket(je[i], je[j]))))

    return first_failure(A.dim, 2, sides)


def ref_product_integrability(A, E):
    """E[x,y] = [Ex,y] + [x,Ey] - E[Ex,Ey], the identity with c = 1."""
    e = [A.basis_vector(i) for i in range(A.dim)]
    ee = [E.apply(x) for x in e]

    def sides(i, j):
        yield ("INTEGRABILITY_FAILS", E.apply(A.bracket_basis(i, j)),
               vsub(vadd(A.bracket(ee[i], e[j]), A.bracket(e[i], ee[j])),
                    E.apply(A.bracket(ee[i], ee[j]))))

    return first_failure(A.dim, 2, sides)


REF_INTEGRABILITY = {1: ref_product_integrability, -1: ref_integrability}


def ref_phi(A, E, phi):
    """J of ``J_from_phi`` and its phi-identity check, for a product
    structure E with eigenspaces of equal dimension and an invertible phi."""
    report = structures.classify_product(A, E)
    plus, minus = report.plus_eigenspace, report.minus_eigenspace
    k = plus.dim
    ps = basis_vectors(plus)
    minus_mat = minus.columns
    qs = [minus_mat.apply(phi.col(j)) for j in range(k)]
    U = Matrix.from_rows(ps + qs).transpose()
    images = Matrix.from_rows(qs + [[-c for c in p] for p in ps]).transpose()
    J = images @ invert(U)

    def sides(a, b):
        yield ("PHI_IDENTITY_FAILS", J.apply(A.bracket(ps[a], ps[b])),
               vadd(vadd(A.bracket(qs[a], ps[b]), A.bracket(ps[a], qs[b])),
                    J.apply(A.bracket(qs[a], qs[b]))))

    return J, first_failure(k, 2, sides)


def ref_action(maps, x, m):
    """l(x) or r(x) for an arbitrary element, assembled by linearity."""
    acc = Matrix.zero(m, m)
    for i, xi in enumerate(x):
        if xi:
            acc = acc + maps[i].scale(xi)
    return acc


def flatten(M):
    return [e for row in M.entries for e in row]


def ref_representation(R):
    A, m = R.algebra, R.rep_dim
    ls, rs = R.left_maps, R.right_maps

    def sides(i, j):
        bij = A.bracket_basis(i, j)
        yield ("AXIOM_L_BRACKET", flatten(ref_action(ls, bij, m)),
               flatten(ls[i] @ ls[j] - ls[j] @ ls[i]))
        yield ("AXIOM_R_BRACKET", flatten(ref_action(rs, bij, m)),
               flatten(ls[i] @ rs[j] - rs[j] @ ls[i]))
        yield ("AXIOM_R_COMPOSE", flatten(rs[j] @ ls[i]),
               flatten((rs[j] @ rs[i]).scale(Scalar.of(-1))))

    return first_failure(A.dim, 2, sides)


def ref_rb_actions(R, T):
    m = R.rep_dim
    tus = [T.apply(unit(m, a)) for a in range(m)]
    return ([ref_action(R.left_maps, tu, m) for tu in tus],
            [ref_action(R.right_maps, tu, m) for tu in tus])


def ref_rota_baxter(A, R, T):
    m = R.rep_dim
    us = [unit(m, a) for a in range(m)]
    tus = [T.apply(u) for u in us]
    lefts, rights = ref_rb_actions(R, T)

    def sides(a, b):
        yield ("ROTA_BAXTER_FAILS", A.bracket(tus[a], tus[b]),
               T.apply(vadd(lefts[a].apply(us[b]), rights[b].apply(us[a]))))

    return first_failure(m, 2, sides)


def ref_rb_to_dendriform(R, T):
    m = R.rep_dim
    us = [unit(m, a) for a in range(m)]
    lefts, rights = ref_rb_actions(R, T)
    return (tensor_from(m, lambda a, b: lefts[a].apply(us[b])),
            tensor_from(m, lambda a, b: rights[b].apply(us[a])))


def ref_compatible(A, R, T):
    n, m = A.dim, R.rep_dim
    t_inv = invert(T)
    e = [A.basis_vector(i) for i in range(n)]
    t_inv_e = [t_inv.apply(x) for x in e]
    return (tensor_from(n, lambda i, j: T.apply(
                ref_action(R.left_maps, e[i], m).apply(t_inv_e[j]))),
            tensor_from(n, lambda i, j: T.apply(
                ref_action(R.right_maps, e[j], m).apply(t_inv_e[i]))))


def ref_bowtie(A, R, T):
    n, m = A.dim, R.rep_dim
    zero_n, zero_m = [Scalar.zero()] * n, [Scalar.zero()] * m
    parts = ([(A.basis_vector(p), zero_m) for p in range(n)]
             + [(zero_n, unit(m, a)) for a in range(m)])

    def left(x):
        return ref_action(R.left_maps, x, m)

    def right(x):
        return ref_action(R.right_maps, x, m)

    def product(p, q):
        (x, u), (y, v) = parts[p], parts[q]
        tu, tv = T.apply(u), T.apply(v)
        e_part = vadd(A.bracket(x, y), A.bracket(tu, y))
        e_part = vsub(e_part, T.apply(right(y).apply(u)))
        e_part = vadd(e_part, A.bracket(x, tv))
        e_part = vsub(e_part, T.apply(left(x).apply(v)))
        v_part = vadd(left(tu).apply(v), right(tv).apply(u))
        v_part = vadd(v_part, left(x).apply(v))
        v_part = vadd(v_part, right(y).apply(u))
        return e_part + v_part

    return tensor_from(n + m, product)


def ref_bracket_J(A, J):
    half = Fraction(1, 2)
    je = [J.apply(A.basis_vector(i)) for i in range(A.dim)]
    return tensor_from(A.dim, lambda i, j: [
        half * c for c in vsub(A.bracket_basis(i, j), A.bracket(je[i], je[j]))])


def ref_induced(A, J, E):
    report = structures.classify_product(A, E)
    plus, minus = report.plus_eigenspace, report.minus_eigenspace
    n = A.dim
    u_inv = invert(Matrix.from_rows(
        basis_vectors(plus) + basis_vectors(minus)).transpose())
    k = plus.dim
    sel_plus = Matrix.from_rows(u_inv.entries[:k])
    sel_minus = Matrix.from_rows(u_inv.entries[k:])
    pi_plus = plus.columns @ sel_plus if k else Matrix.zero(n, n)
    pi_minus = minus.columns @ sel_minus if minus.dim else Matrix.zero(n, n)

    def build(space, pi, sel):
        xs = basis_vectors(space)
        jxs = [J.apply(x) for x in xs]

        def project(v):
            return sel.apply(pi.apply([-c for c in J.apply(v)]))

        k = space.dim
        return (tensor_from(k, lambda a, b: project(A.bracket(xs[a], jxs[b]))),
                tensor_from(k, lambda a, b: project(A.bracket(jxs[a], xs[b]))))

    return build(plus, pi_plus, sel_plus), build(minus, pi_minus, sel_minus)


def ref_regular_maps(A):
    """L_i and R_i, whose column j is [e_i, e_j] and [e_j, e_i]."""
    n = A.dim

    def from_columns(columns):
        return dense(n, zip(*columns))
    return ([from_columns(A.bracket_basis(i, j) for j in range(n))
             for i in range(n)],
            [from_columns(A.bracket_basis(j, i) for j in range(n))
             for i in range(n)])


def ref_dual_maps(R):
    return ([l.transpose().scale(Scalar.of(-1)) for l in R.left_maps],
            [l.transpose() + r.transpose()
             for l, r in zip(R.left_maps, R.right_maps)])


def ref_semidirect(R):
    A = R.algebra
    n, m = A.dim, R.rep_dim
    brackets = dict(A.brackets)
    for i in range(n):
        for b in range(m):
            for key, M in (((i, n + b), R.left_maps[i]),
                           ((n + b, i), R.right_maps[i])):
                brackets[key] = {n + k: c for k, c in enumerate(M.col(b))}
    return LeibnizAlgebra.from_brackets(n + m, brackets, A.field).brackets


# -- instances ----------------------------------------------------------------

COEFFS = (0, 0, 0, 1, -1, 2, Fraction(1, 2))


def scalar(draw, field):
    re = draw(st.sampled_from(COEFFS))
    im = draw(st.sampled_from((0, 1, -2))) if field == GAUSSIAN else 0
    return Scalar.of(re, im)


def matrix(draw, rows, cols, field):
    """A rows x cols matrix, also when either is 0."""
    return dense(cols, ([scalar(draw, field) for _ in range(cols)]
                        for _ in range(rows)))


def operator(draw, n, field):
    """A square operator: sparse, diagonal +-1, zero or the identity."""
    kind = draw(st.sampled_from(("sparse", "signs", "zero", "identity")))
    if kind == "sparse":
        return matrix(draw, n, n, field)
    if kind == "signs":
        return Matrix.diagonal([Scalar.of(draw(st.sampled_from((1, -1))))
                                for _ in range(n)])
    return Matrix.zero(n, n) if kind == "zero" else Matrix.identity(n)


RULES = {  # which coordinates k of [e_i, e_j] may be nonzero, by sign
    # M = diag(signs) is a product structure
    "block": lambda s, i, j, k: s[i] != s[j] or s[k] == s[i],
    # M[x, y] = [Mx, y] (left) or M[x, y] = [x, My] (right)
    "left": lambda s, i, j, k: s[k] == s[i],
    "right": lambda s, i, j, k: s[k] == s[j]}


def algebra(draw, n, field, signs=None, rule="block"):
    """Sparse brackets; with ``signs``, only the coordinates that ``rule``
    allows."""
    brackets = {}
    for i in range(n):
        for j in range(n):
            brackets[(i, j)] = {
                k: scalar(draw, field) for k in range(n)
                if signs is None or RULES[rule](signs, i, j, k)}
    return LeibnizAlgebra.from_brackets(n, brackets, field)


def representation(draw, A, m, field):
    """A module of dimension m: random actions, the zero module, or the
    regular one when m is the algebra's dimension."""
    kind = draw(st.sampled_from(("random", "zero", "regular")))
    if kind == "regular" and m == A.dim:
        return regular_rep(A)
    if kind == "zero":
        return Representation(A, m, {}, {})
    return Representation.build(
        A, [matrix(draw, m, m, field) for _ in range(A.dim)],
        [matrix(draw, m, m, field) for _ in range(A.dim)], m)


FIELDS = st.sampled_from((RATIONAL, GAUSSIAN))
SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def operator_cases(draw):
    """Any operator on any algebra, or diag(signs) on an algebra whose
    brackets respect the signs by one of the ``RULES``."""
    field, n = draw(FIELDS), draw(st.integers(0, 3))
    rule = draw(st.sampled_from((None, *RULES)))
    if rule is None:
        return algebra(draw, n, field), operator(draw, n, field)
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    return (algebra(draw, n, field, signs, rule),
            Matrix.diagonal([Scalar.of(s) for s in signs]))


def unitriangular(draw, n, field):
    return Matrix.from_rows([[Scalar.one() if a == b else scalar(draw, field)
                              if a < b else Scalar.zero() for b in range(n)]
                             for a in range(n)])


@st.composite
def module_cases(draw):
    """(algebra, module, T): T maps the module into the algebra and may be
    rectangular or empty.  In a quarter of the cases T is a Rota-Baxter
    operator: c times the identity is one on the module of a dendriform
    algebra, and stays one, as c G, once the module is moved by a basis
    change G."""
    field = draw(FIELDS)
    if draw(st.integers(0, 3)) == 0:
        D = random_dendriform(Random(draw(st.integers(0, 10 ** 6))),
                              draw(st.integers(1, 3)))
        R, n = dendriform_rep(D), D.dim
        G = unitriangular(draw, n, field)
        G_inv = invert(G)
        R = Representation.build(R.algebra,
                                 [G_inv @ M @ G for M in R.left_maps],
                                 [G_inv @ M @ G for M in R.right_maps], n)
        c = Scalar.of(draw(st.sampled_from((1, -1, 3))))
        return R.algebra, R, G.scale(c)
    n = draw(st.integers(0, 3))
    A = algebra(draw, n, field)
    R = representation(draw, A, draw(st.integers(0, 3)), field)
    m = R.rep_dim   # 0 when n = 0, unless R is the zero module
    T = (Matrix.zero(n, m)
         if draw(st.booleans()) else matrix(draw, n, m, field))
    return A, R, T


# -- the verifiers ---------------------------------------------------------------


@SETTINGS
@given(operator_cases())
def test_nijenhuis_integrability_strict_abelian_match_closures(case):
    A, M = case
    assert outcome(lambda: verify_nijenhuis(A, M)) == outcome(
        lambda: ref_nijenhuis(A, M))
    for c in (1, -1):
        assert outcome(lambda: structures.integrability(A, M, c)) == outcome(
            lambda: REF_INTEGRABILITY[c](A, M))
        assert structures._report(A, M, c)[1:3] == ref_strict_abelian(
            A, M, -c)


def conjugate(A, P, P_inv):
    """The algebra carried over by P: [Px, Py] = P[x, y]."""
    return LeibnizAlgebra(A.dim, transport(A.brackets, P_inv, P_inv, P),
                          A.field)


@st.composite
def square_root_cases(draw):
    """(algebra, M, c) with M = P D P^-1 and M^2 = cI: D = diag(+-1), with
    both signs from n = 2 on, for c = 1 and D = J0 = [[0, -I], [I, 0]] for
    c = -1.  In half the cases the algebra is carried over by P from one on
    which D is integrable: for c = 1 its brackets respect the signs, for
    c = -1 it is a Gaussian algebra over the rationals (on the basis e_a,
    i e_a, where J0 is multiplication by i)."""
    field, c = draw(FIELDS), draw(st.sampled_from((1, -1)))
    integrable = draw(st.booleans())
    if c == 1:
        n = draw(st.integers(0, 4))
        signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
        signs[1:2] = [-signs[0]] if n > 1 else []
        D = Matrix.diagonal([Scalar.of(s) for s in signs])
        A = (algebra(draw, n, field, signs) if integrable
             else algebra(draw, n, field))
    else:
        k = draw(st.integers(0, 2))
        n = 2 * k
        D = Matrix.from_rows([[Scalar.of(-1) if b == a + k else Scalar.one()
                               if a == b + k else Scalar.zero()
                               for b in range(n)] for a in range(n)])
        A = (LeibnizAlgebra(n, kahler._realified_brackets(
                algebra(draw, k, GAUSSIAN)), field) if integrable
             else algebra(draw, n, field))
    P = unitriangular(draw, n, field) @ unitriangular(
        draw, n, field).transpose()
    P_inv = invert(P)
    return conjugate(A, P, P_inv), P @ D @ P_inv, c


@SETTINGS
@given(square_root_cases())
def test_integrability_decides_as_nijenhuis_when_squares_to_c(case):
    """With M^2 = cI the c-identity and the Nijenhuis identity agree, and
    the witness of the c-identity is its dense closure's."""
    A, M, c = case
    assert structures._squares_to(M, c)
    check = structures.integrability(A, M, c)
    assert check.ok == verify_nijenhuis(A, M).ok
    assert outcome(lambda: check) == outcome(
        lambda: REF_INTEGRABILITY[c](A, M))
    assert structures._report(A, M, c)[1:3] == ref_strict_abelian(A, M, -c)


@SETTINGS
@given(module_cases())
def test_rota_baxter_and_representation_match_closures(case):
    A, R, T = case
    assert outcome(lambda: verify_rota_baxter(A, R, T)) == outcome(
        lambda: ref_rota_baxter(A, R, T))
    assert outcome(lambda: verify_representation(R)) == outcome(
        lambda: ref_representation(R))


@st.composite
def phi_cases(draw):
    """A product structure diag(+1, .., -1, ..) with eigenspaces of equal
    dimension k and an invertible upper triangular phi."""
    field, k = draw(FIELDS), draw(st.integers(0, 2))
    signs = [1] * k + [-1] * k
    A = algebra(draw, 2 * k, field, signs)
    phi = Matrix.from_rows([
        [Scalar.of(draw(st.sampled_from((1, -1, 2)))) if a == b
         else scalar(draw, field) if a < b else Scalar.zero()
         for b in range(k)] for a in range(k)])
    return A, Matrix.diagonal([Scalar.of(s) for s in signs]), phi


@SETTINGS
@given(phi_cases())
def test_phi_identity_matches_closure(case):
    A, E, phi = case
    J, check = ref_phi(A, E, phi)
    try:
        got = J_from_phi(A, E, phi)
    except LeibnizLabError as exc:
        assert not check.ok
        assert str(exc) == "identity fails at pair (%d, %d)" % check.indices
    else:
        assert check.ok and typed(got) == typed(J)


# -- the constructions -------------------------------------------------------------


def same_tensors(got, expected):
    assert typed(got) == typed(expected)


@SETTINGS
@given(module_cases())
def test_rota_baxter_constructions_match_closures(case):
    A, R, T = case
    if not ref_rota_baxter(A, R, T).ok:
        return
    D = rb_to_dendriform(A, R, T)
    same_tensors((D.left_brackets, D.right_brackets), ref_rb_to_dendriform(R, T))
    same_tensors(bowtie_algebra(A, R, T).brackets, ref_bowtie(A, R, T))
    if T.rows == T.cols and not is_singular(T):
        D = compatible_dendriform_from_invertible_rb(A, R, T)
        same_tensors((D.left_brackets, D.right_brackets),
                     ref_compatible(A, R, T))


@SETTINGS
@given(module_cases())
def test_module_constructions_match_matrix_round_trips(case):
    A, R, _ = case
    same_tensors(semidirect_product(R).brackets, ref_semidirect(R))
    Rd = dual_rep(R)
    same_tensors((Rd.left_maps, Rd.right_maps), ref_dual_maps(R))
    Rr = regular_rep(A)
    same_tensors((Rr.left_maps, Rr.right_maps), ref_regular_maps(A))
    rebuilt = Representation.build(A, R.left_maps, R.right_maps, R.rep_dim)
    assert (rebuilt.left, rebuilt.right) == (R.left, R.right)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_dendriform_rep_matches_multiplication_matrices(seed, dim):
    D = random_dendriform(Random(seed), dim)
    R = dendriform_rep(D)
    n = D.dim
    for i in range(n):
        for b in range(n):
            assert list(R.left_maps[i].col(b)) == D.left(unit(n, i), unit(n, b))
            assert list(R.right_maps[i].col(b)) == D.right(unit(n, b), unit(n, i))


def conjugated(A, J, E, G):
    """The pair (J, E) on A moved by the basis change G, all dense."""
    G_inv = invert(G)
    moved = LeibnizAlgebra(A.dim, tensor_from(A.dim, lambda i, j: G_inv.apply(
        A.bracket(list(G.col(i)), list(G.col(j))))), A.field)
    return moved, G_inv @ J @ G, G_inv @ E @ G


@st.composite
def complex_product_cases(draw):
    """A phase-space complex product pair (omega_to_J), E or -E, moved by a
    random unitriangular basis change so that the eigenspaces are not
    spanned by basis vectors."""
    rng = Random(draw(st.integers(0, 10 ** 6)))
    D = random_dendriform_with_skew(rng)
    omega = random_invariant_skew(rng, D)
    if omega is None:
        D = DendriformAlgebra(2, {}, {})
        omega = Matrix.from_rows([[Scalar.zero(), Scalar.one()],
                                  [Scalar.of(-1), Scalar.zero()]])
    P, J = omega_to_J(D, omega)
    s = draw(st.sampled_from((1, -1)))   # -E swaps the two eigenspaces
    E = Matrix.diagonal([Scalar.of(s)] * D.dim + [Scalar.of(-s)] * D.dim)
    return conjugated(P.total, J, E,
                      unitriangular(draw, P.total.dim, RATIONAL))


@settings(max_examples=25, deadline=None)
@given(complex_product_cases())
def test_complex_constructions_match_closures(case):
    A, J, E = case
    same_tensors(bracket_J(A, J).brackets, ref_bracket_J(A, J))
    plus, minus = induced_dendriform_on_eigenspaces(A, J, E)
    same_tensors(((plus.left_brackets, plus.right_brackets),
                  (minus.left_brackets, minus.right_brackets)),
                 ref_induced(A, J, E))


# -- transport ---------------------------------------------------------------------


@st.composite
def transport_cases(draw):
    field, n = draw(FIELDS), draw(st.integers(0, 3))
    tensor = algebra(draw, n, field).brackets
    shapes = [draw(st.sampled_from((None, 0, 1, 2, 3))) for _ in range(3)]
    P, Q, R = (None if s is None else
               matrix(draw, n, s, field) if place < 2 else matrix(draw, s, n, field)
               for place, s in enumerate(shapes))
    return n, tensor, P, Q, R


@SETTINGS
@given(transport_cases())
def test_transport_matches_dense_evaluation(case):
    """R tensor(P e_i, Q e_j) on every pair, by dense products; None is the
    identity, while a matrix without columns leaves no pair at all."""
    n, tensor, P, Q, R = case
    p = n if P is None else P.cols
    q = n if Q is None else Q.cols

    def column(M, i):
        return unit(n, i) if M is None else list(M.col(i))

    def value(i, j):
        v = tensor_product(tensor, column(P, i), column(Q, j))
        return v if R is None else R.apply(v)

    expected = {}
    for i in range(p):
        for j in range(q):
            entry = {k: c for k, c in enumerate(value(i, j)) if c}
            if entry:
                expected[(i, j)] = entry
    assert typed(transport(tensor, P, Q, R)) == typed(expected)
    if P is not None and P.cols == 0:
        assert transport(tensor, P, Q, R) == {}
    if (P, Q, R) == (None, None, None):
        assert transport(tensor) == tensor


@settings(max_examples=25, deadline=None)
@given(complex_product_cases())
def test_induced_products_are_projections_along_the_other_eigenspace(case):
    """x<y and x>y, each re-embedded through its eigenspace basis, are the
    projections of -J[x, Jy] and -J[Jx, y] along the other eigenspace: what
    is left lies in the other eigenspace, computed independently."""
    A, J, E = case
    report = structures.classify_product(A, E)
    spaces = (report.plus_eigenspace, report.minus_eigenspace)
    induced = induced_dendriform_on_eigenspaces(A, J, E)
    for D, space, other in zip(induced, spaces, spaces[::-1]):
        k, xs = space.dim, [list(x) for x in basis_vectors(space)]
        for a in range(k):
            for b in range(k):
                for got, value in (
                        (D.left(unit(k, a), unit(k, b)),
                         A.bracket(xs[a], J.apply(xs[b]))),
                        (D.right(unit(k, a), unit(k, b)),
                         A.bracket(J.apply(xs[a]), xs[b]))):
                    rest = [-c for c in J.apply(value)]
                    for t, c in enumerate(got):
                        rest = [r - c * x for r, x in zip(rest, xs[t])]
                    assert rank(Matrix.from_rows(
                        basis_vectors(other) + [rest])) == other.dim
