"""Leibniz algebras as exact structure-constant tensors.

This module also holds the tensor core that every other module builds on:
the builder :func:`tensor_from`, the bilinear kernel :func:`tensor_product`,
the vector helper :func:`unit`, the two tensor operations :func:`contract`
and :func:`transport` (with :func:`functionals`, which a product defined
through a form is solved from), and the one witness rule,
:func:`first_witness`.

Structure tensors: every product (the bracket, both dendriform products,
both actions of a representation, every construction) is one sparse map
``{(i, j): {k: c}}``, meaning ``e_i . e_j = sum_k c e_k``, holding nonzero
``c`` only, so tensors are equal exactly when their maps are.
Constructions build one with :func:`transport` or straight from the
stored entries; callers pass one to ``from_brackets``, or two dense
``c[i][j][k]`` lists to ``DendriformAlgebra.from_constants``, the one
caller of :func:`tensor_from`.  Stored maps are never mutated.  The
package reads a tensor through the tensor operations; a :class:`Subspace`
stores the matrix of its basis columns, which enters them as it is, so the
products of its basis pairs are one :func:`transport` and a closure test
is one rank.  ``bracket`` and ``bracket_basis`` read dense vectors for
callers outside the package.
Besides the tensor operations, only :mod:`io` serialization,
:func:`direct_sum`, the representation constructions and ``realify``
iterate a stored map.

Adding an identity: write each side as a sparse map over its index tuples
and return ``first_witness(width, equations)``.  An identity over basis
triples is a term table, a tuple of ``(reason, lhs, rhs)`` equations whose
sides are signed terms over the slots x, y, z (syntax in :func:`contract`),
run by ``first_defect(dim, table, tensors)``; a solver linear in a form
contracts the same table with the form unknown, so the table is the
identity's only encoding.  An identity over basis pairs that composes
operators with a product writes each side as a sum of :func:`transport`
images.  Either way the smallest failing tuple in lexicographic order, and
in it the first failing equation, is the witness.

Repeated verdicts: :func:`_last_call` wraps a private leaf core that takes
every input as an argument (``symplectic._verify_symplectic``,
``structures._integrability``), never a public name or a function that
reads a module-level table through a callee.  It keeps one entry, the last
argument tuple and its verdict, and returns that verdict while every
argument ``is`` the stored one: records are immutable and stored maps are
never mutated, so a hit is exact.  A call that raises stores nothing.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .errors import DimensionMismatch, FieldMismatch
from .linalg import Matrix, rank
from .record import Record
from .scalars import _ZERO, RATIONAL, Scalar

Vector = list  # coordinate list or tuple of field elements, ambient basis


class CheckResult(Record):
    """Outcome of a verification, with a re-checkable witness on failure."""
    __slots__ = ("ok", "reason", "indices", "lhs", "rhs")
    _defaults = dict.fromkeys(("reason", "indices", "lhs", "rhs"))

    def __bool__(self) -> bool:
        return self.ok


OK = CheckResult(True)


def first_witness(width: int, equations) -> CheckResult:
    """The witness rule of every identity.

    ``equations`` lists ``(reason, lhs, rhs)`` in order, both sides sparse
    maps ``{index tuple: {k: c}}`` without zeros, so an equation fails at a
    tuple exactly when its two entries differ.  The smallest failing tuple,
    and in it the first failing equation, is the witness, with both sides
    as dense vectors of length ``width``.
    """
    failures = [(min(failing), place)
                for place, (_, lhs, rhs) in enumerate(equations)
                if (failing := [idx for idx in lhs.keys() | rhs.keys()
                                if lhs.get(idx) != rhs.get(idx)])]
    if not failures:
        return OK
    idx, place = min(failures)
    reason, lhs, rhs = equations[place]
    return CheckResult(False, reason, idx, _dense(lhs, idx, width),
                       _dense(rhs, idx, width))


def _last_call(fn):
    """``fn`` with a one-entry identity memo (see *Repeated verdicts*)."""
    last = None, None   # the last returning call's arguments and verdict

    @functools.wraps(fn)
    def memo(*args):
        nonlocal last
        stored, verdict = last
        if stored is not None and len(args) == len(stored) and all(
                a is b for a, b in zip(args, stored)):
            return verdict
        verdict = fn(*args)
        last = args, verdict
        return verdict
    return memo


def _dense(tensor: dict, key: tuple, width: int) -> list:
    """The entry of a sparse map at ``key`` as a dense vector."""
    value = tensor.get(key, {})
    return [value.get(k, _ZERO) for k in range(width)]


def _term(text: str):
    """A term text as (outer, inner, inner first?, slots of the inner pair
    and of the outer argument as places 0, 1, 2 of x, y, z)."""
    if text[0] == "(":
        a, inner, b, outer, c = text[1], text[2], text[3], text[5], text[6]
    else:
        c, outer, a, inner, b = text[0], text[1], text[3], text[4], text[5]
    return outer, inner, text[0] == "(", tuple(map("xyz".index, (a, b, c)))


def contract(terms, tensors: dict) -> dict:
    """A sum of signed terms on all basis triples, as the sparse map
    ``{(i, j, k): {m: c}}`` of its nonzero coordinates.

    A term is ``(sign, text)``, the text ``"(xoy)Pz"`` or ``"xP(yoz)"`` (x,
    y, z in any order): product P of a slot with product o of the other
    two.  ``tensors`` maps each symbol to a sparse tensor; the form ``|``
    is ``{(p, q): {0: B[p, q]}}`` (:func:`form_tensor`), or
    ``{(p, q): {t: 1}}`` for unknown entries t, which gives the rows of a
    linear system in the form.  Only stored entries are visited.
    """
    out = {}
    for sign, text in terms:
        outer, inner, inner_first, slots = _term(text)
        feed = {}   # outer entries by the argument the inner product fills
        for (p, q), value in tensors[outer].items():
            feed.setdefault(p if inner_first else q, []).append(
                (q if inner_first else p, value))
        x, y, z = map(slots.index, range(3))  # their places in abf
        for (a, b), vector in tensors[inner].items():
            for m, c in vector.items():
                c = c if sign > 0 else -c
                for f, value in feed.get(m, ()):
                    abf = (a, b, f)
                    acc = out.setdefault((abf[x], abf[y], abf[z]), {})
                    for k, d in value.items():
                        acc[k] = acc[k] + c * d if k in acc else c * d
    return _nonzero(out)


def defect(equation, tensors: dict) -> dict:
    """lhs - rhs of one ``(reason, lhs, rhs)`` equation, contracted."""
    _, lhs, rhs = equation
    return contract(lhs + tuple((-s, t) for s, t in rhs), tensors)


def first_defect(dim: int, table, tensors: dict) -> CheckResult:
    """Run a term table over all basis triples through :func:`first_witness`,
    with both sides as vectors of length ``dim`` (length 1 when the outer
    product is the form ``|``)."""
    _, lhs, _ = table[0]
    width = 1 if _term(lhs[0][1])[0] == "|" else dim
    return first_witness(width, [
        (reason, contract(lhs, tensors), contract(rhs, tensors))
        for reason, lhs, rhs in table])


def transport(tensor: dict, P: Matrix = None, Q: Matrix = None,
              R: Matrix = None) -> dict:
    """The sparse tensor of (x, y) -> R tensor(Px, Qy).

    ``None`` is the identity and costs nothing.  P and Q may be rectangular
    (their rows index the tensor's slots, their columns the new ones) and
    may have no columns; R is applied through its nonzero columns.  An
    entry 1 is kept as None too, so no factor 1 is ever multiplied.
    """
    def support(M):
        """Row a of M as its nonzero entries (i, M[a, i]), None for 1."""
        return [[(i, None if c == 1 else c) for i, c in row.items()]
                for row in M.nonzero]
    ps = None if P is None else support(P)
    qs = None if Q is None else support(Q)
    if R is not None:
        rs = {}    # column k of R as its nonzero (r, R[r, k])
        for r, row in enumerate(support(R)):
            for k, c in row:
                rs.setdefault(k, []).append((r, c))
    out = {}
    for (a, b), value in tensor.items():
        if R is not None:
            image = {}
            for k, c in value.items():
                for r, d in rs.get(k, ()):
                    v = c if d is None else d * c
                    image[r] = image[r] + v if r in image else v
            value = image
        for i, p in ((a, None),) if ps is None else ps[a]:
            for j, q in ((b, None),) if qs is None else qs[b]:
                f = q if p is None else p if q is None else p * q
                acc = out.setdefault((i, j), {})
                for k, c in value.items():
                    v = c if f is None else f * c
                    acc[k] = acc[k] + v if k in acc else v
    return _nonzero(out)


def functionals(terms, tensors: dict) -> dict:
    """A sum of form terms as the sparse tensor ``{(i, j): {k: c}}``, c its
    value at (i, j, k).

    A product defined through a nondegenerate form, F(x.y, z) = w(x, y, z),
    is then ``transport(functionals(w, tensors), R=G)``, with G the inverse
    of the matrix that sends v to (F(v, e_k))_k.
    """
    out = {}
    for (i, j, k), value in contract(terms, tensors).items():
        out.setdefault((i, j), {})[k] = value[0]
    return out


def form_tensor(B: Matrix) -> dict:
    """A form as the bilinear map {(p, q): {0: B[p, q]}} into a line."""
    return {(p, q): {0: c} for p, row in enumerate(B.nonzero)
            for q, c in row.items()}


def unit(n: int, i: int) -> Vector:
    """The i-th standard basis vector of length n."""
    v = [Scalar.zero()] * n
    v[i] = Scalar.one()
    return v


def tensor_from(dim: int, product) -> dict:
    """The sparse tensor {(i, j): {k: c}} of a bilinear map given on basis
    pairs as ``product(i, j) -> coordinate list``; zeros are dropped."""
    return _nonzero({(i, j): dict(enumerate(product(i, j)))
                     for i in range(dim) for j in range(dim)})


def _dense_tensor(dense, dim: int) -> dict:
    """The sparse form of a dense dim x dim x dim list c[i][j][k]."""
    if len(dense) != dim or any(len(plane) != dim or any(
            len(row) != dim for row in plane) for plane in dense):
        raise DimensionMismatch("structure tensor must be n x n x n")
    return tensor_from(dim, lambda i, j: dense[i][j])


def _nonzero(tensor: dict) -> dict:
    """A fresh copy of a sparse map without zero coordinates or empty keys."""
    out = {}
    for key, value in tensor.items():
        value = {k: c for k, c in value.items() if c}
        if value:
            out[key] = value
    return out


def _checked_tensor(dim: int, brackets: dict) -> dict:
    """A fresh copy of a sparse tensor without zeros; every index must lie
    in range(dim)."""
    for (i, j), value in brackets.items():
        if not all(0 <= t < dim for t in (i, j, *value)):
            raise DimensionMismatch("bracket index outside range(%d)" % dim)
    return _nonzero(brackets)


def tensor_product(tensor: dict, x: Vector, y: Vector) -> Vector:
    """sum x_i y_j c e_k over the stored entries (i, j): {k: c}."""
    out = [Scalar.zero()] * len(x)
    for (i, j), value in tensor.items():
        xi = x[i]
        if xi:
            yj = y[j]
            if yj:
                f = xi * yj
                for k, c in value.items():
                    out[k] = out[k] + f * c
    return out


def tensor_sum(*tensors: dict) -> dict:
    """The sparse tensor of the sum of bilinear maps."""
    out = {}
    for key, value in (item for t in tensors for item in t.items()):
        acc = out.setdefault(key, {})
        for k, c in value.items():
            acc[k] = acc.get(k, _ZERO) + c
    return _nonzero(out)


def _checked_product(tensor: dict, dim: int, x: Vector, y: Vector) -> Vector:
    if len(x) != dim or len(y) != dim:
        raise DimensionMismatch("vectors of length %d expected" % dim)
    return tensor_product(tensor, x, y)


def _mult_matrix(tensor: dict, dim: int, keys) -> Matrix:
    """The dim x dim matrix whose column j holds the entry tensor[keys[j]]."""
    rows = [{} for _ in range(dim)]
    for j, key in enumerate(keys):
        for k, c in tensor.get(key, {}).items():
            rows[k][j] = c
    return Matrix(dim, dim, tuple(rows))


def _require_square(M: Matrix, dim: int, what: str = "form"):
    if M.rows != dim or M.cols != dim:
        raise DimensionMismatch("%s must be %d x %d" % (what, dim, dim))


class Subspace(Record):
    """Span of linearly independent vectors, stored as ``columns``: the
    sparse ambient x dim matrix of its basis columns, 0 x 0 for {0}."""
    __slots__ = ("columns",)

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        rows = Matrix.from_rows(vectors)
        if rank(rows) != rows.rows:
            raise DimensionMismatch("subspace basis is linearly dependent")
        return Subspace(rows.transpose())

    @property
    def dim(self) -> int:
        return self.columns.cols


class LeibnizAlgebra(Record):
    """``brackets`` is the sparse structure tensor {(i, j): {k: c}},
    c nonzero."""
    __slots__ = ("dim", "brackets", "field", "labels")
    _defaults = {"field": RATIONAL, "labels": None}

    @staticmethod
    def from_brackets(dim: int, brackets: dict, field: str = RATIONAL,
                      labels=None) -> "LeibnizAlgebra":
        """Build from a sparse map (i, j) -> {k: Scalar}."""
        return LeibnizAlgebra(dim, _checked_tensor(dim, brackets), field,
                              tuple(labels) if labels else None)

    def basis_vector(self, i: int) -> Vector:
        return unit(self.dim, i)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        return _checked_product(self.brackets, self.dim, x, y)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return _dense(self.brackets, (i, j), self.dim)


# [x,[y,z]] = [[x,y],z] + [y,[x,z]], with "." the bracket.
LEIBNIZ = (("LEIBNIZ_FAILS", ((1, "x.(y.z)"),),
            ((1, "(x.y).z"), (1, "y.(x.z)"))),)


def verify_leibniz(A: LeibnizAlgebra) -> CheckResult:
    """Check the Leibniz identity (:data:`LEIBNIZ`) on all basis triples.

    Trilinearity of both sides certifies the identity for all elements.
    """
    return first_defect(A.dim, LEIBNIZ, {".": A.brackets})


def _columns(A, W: Subspace) -> Matrix:
    """W's basis columns, A.dim x 0 for W = {0}; W must live in the space
    of the algebra ``A`` (anything with a dim)."""
    C = W.columns
    if not C.cols:
        return Matrix.zero(A.dim, 0)
    if C.rows != A.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    return C


def _require(check: CheckResult, error, what: str):
    """Raise ``error("<what>: <reason>")`` when ``check`` failed."""
    if not check.ok:
        raise error("%s: %s" % (what, check.reason))


def _closed(C: Matrix, *tensors: dict) -> bool:
    """Whether every vector stored in the tensors lies in the span of the
    independent columns of C, by one rank: the stack keeps rank C.cols
    exactly then."""
    rows = C.transpose().nonzero + tuple(
        value for tensor in tensors for value in tensor.values())
    return rank(Matrix(len(rows), C.rows, rows)) == C.cols


def is_subalgebra(A: LeibnizAlgebra, W: Subspace) -> bool:
    C = _columns(A, W)
    return _closed(C, transport(A.brackets, C, C))


def is_abelian_subalgebra(A: LeibnizAlgebra, W: Subspace) -> bool:
    C = _columns(A, W)
    return not transport(A.brackets, C, C)


def is_two_sided_ideal(A: LeibnizAlgebra, W: Subspace) -> bool:
    C = _columns(A, W)
    return _closed(C, transport(A.brackets, None, C),
                   transport(A.brackets, C))


def direct_sum(A: LeibnizAlgebra, B: LeibnizAlgebra) -> LeibnizAlgebra:
    if A.field != B.field:
        raise FieldMismatch("direct sum of algebras over different fields")
    n = A.dim
    brackets = dict(A.brackets)
    brackets.update({(i + n, j + n): {k + n: c for k, c in value.items()}
                     for (i, j), value in B.brackets.items()})
    return LeibnizAlgebra.from_brackets(n + B.dim, brackets, A.field)


def killing_form(A: LeibnizAlgebra) -> Matrix:
    """B(e_i, e_j) = tr(L_i L_j) with L_i the left multiplication by e_i,
    contracted from the term x.(y.z): B_ij sums the e_a coordinate of
    [e_i, [e_j, e_a]] over a.

    For Lie algebras this is the classical Killing form; no symmetry is
    claimed for general Leibniz algebras.
    """
    rows = [{} for _ in range(A.dim)]
    for (i, j, a), value in contract(((1, "x.(y.z)"),),
                                     {".": A.brackets}).items():
        if a in value:
            rows[i][j] = rows[i].get(j, _ZERO) + value[a]
    return Matrix(A.dim, A.dim, tuple({j: c for j, c in row.items() if c}
                                      for row in rows))
