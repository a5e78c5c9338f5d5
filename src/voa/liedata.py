"""Lie algebra data (structure constants, bilinear form) and symmetry actions.

Conventions
-----------
Generators are indexed 0..n-1.  Brackets are stored sparsely: brackets[i][j]
lists the nonzero structure constants (l, c) with [xi_i, xi_j] = sum c xi_l.
A matrix M acts on the generator space by xi_j |-> sum_i M[i][j] xi_i
(columns are images).  Group actions are given infinitesimally by Lie-algebra
matrices, plus finite elements for disconnected groups such as O(n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from . import linalg
from .errors import check_budget
from .scalars import _rational, rational_to_str

Matrix = tuple  # tuple of tuples of Fraction

#: dual Coxeter numbers for the built-in simple algebras
DUAL_COXETER = {"sl2": Fraction(2)}

#: largest algebra dimension: the validators' identity sums and the adjoint
#: matrices grow as dim^3
MAX_DIM = 64


def mat(rows) -> Matrix:
    return tuple(tuple(_rational(x) for x in row) for row in rows)


def _exact(c):
    """The exact rational c: an int as it is, anything else as a Fraction,
    which comes back as its numerator, an int, when it is integral.  A float
    raises TypeError."""
    if type(c) is int:
        return c
    c = _rational(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True, eq=False)
class LieSpec:
    """A Lie algebra with a symmetric invariant bilinear form.

    ``brackets[i][j]`` is the tuple of nonzero ``(l, c)``, l ascending, with
    [xi_i, xi_j] = sum c xi_l, and ``form[i][j]`` is B(i, j).  Every entry is
    ``_exact``: an ``int`` where it is integral, so the vertex engine's caches
    hold integers on an integral spec, and a ``Fraction`` only where it is not.
    Equality is object identity; specs are built once and shared.
    """

    dim: int
    labels: tuple
    brackets: tuple
    form: tuple
    name: str = "lie"

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown generator {label!r} (have {', '.join(self.labels)})")

    @functools.cached_property
    def free_field(self):
        """B for an abelian spec, None otherwise.

        The vertex engine takes Wick's closed form for circle products when
        this is not None; it is decided once per spec.
        """
        return None if any(any(row) for row in self.brackets) else self.form


@dataclass(frozen=True, eq=False)
class ActionSpec:
    """A symmetry of the algebra: infinitesimal generators plus finite elements."""

    lie_generators: tuple  # of n x n matrices
    finite_elements: tuple  # of n x n matrices
    label: str = "action"


@dataclass
class ValidationReport:
    failures: list = field(default_factory=list)  # (identity name, witness indices)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, kind: str, witness: tuple):
        self.failures.append((kind, witness))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"FAIL {kind} at {witness}" for kind, witness in self.failures)


def _check_dim(dim: int):
    """Raise ResourceError when dim exceeds MAX_DIM."""
    check_budget("algebra dim", dim, MAX_DIM)


def _complete(entries, what, mirror) -> dict:
    """Sparse entries with their mirror images added; a conflict raises ValueError."""
    out = {}
    for key, v in entries.items():
        v = _rational(v)
        for k2, val in ((key, v), mirror(key, v)):
            if out.setdefault(k2, val) != val:
                raise ValueError(f"inconsistent {what}{k2}")
    return out


def build_spec(dim, labels, bracket_entries, form_entries, name="lie") -> LieSpec:
    """Assemble a LieSpec from sparse entries, completing antisymmetry/symmetry."""
    _check_dim(dim)
    entries = _complete(bracket_entries, "bracket entry c", lambda k, v: ((k[1], k[0], k[2]), -v))
    brackets = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, l), v in sorted(entries.items()):
        if v:
            brackets[i][j].append((l, _exact(v)))
    form = [[0] * dim for _ in range(dim)]
    for (i, j), v in _complete(form_entries, "form entry B", lambda k, v: (k[::-1], v)).items():
        form[i][j] = _exact(v)
    return LieSpec(
        dim=dim,
        labels=tuple(labels),
        brackets=tuple(tuple(map(tuple, row)) for row in brackets),
        form=tuple(map(tuple, form)),
        name=name,
    )


# -- built-in algebras ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def abelian(n: int) -> LieSpec:
    """Rank-n abelian algebra with the identity form: the Heisenberg case."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_dim(n)  # before the O(n) labels and form
    return build_spec(
        n,
        [f"a{i+1}" for i in range(n)],
        {},
        {(i, i): 1 for i in range(n)},
        name=f"heisenberg{n}",
    )


@functools.lru_cache(maxsize=None)
def sl2_spec() -> LieSpec:
    """sl2 in the root basis (x, y, h): [x,y]=h, [h,x]=2x, [h,y]=-2y.

    The form B(x,y)=1, B(h,h)=2 matches second-order poles k(z-w)^-2 for
    X^x X^y and 2k(z-w)^-2 for X^h X^h.
    """
    return build_spec(
        3,
        ["x", "y", "h"],
        {(0, 1, 2): 1, (2, 0, 0): 2, (2, 1, 1): -2},
        {(0, 1): 1, (2, 2): 2},
        name="sl2",
    )


def adjoint_action(spec: LieSpec) -> ActionSpec:
    """The adjoint action: ad-matrices of the basis, no finite part."""
    n = spec.dim
    gens = []
    for row in spec.brackets:
        m = [[0] * n for _ in range(n)]
        for j, vec in enumerate(row):
            for l, c in vec:
                m[l][j] = c
        gens.append(mat(m))
    return ActionSpec(tuple(gens), (), label=f"adjoint({spec.name})")


def orthogonal_action(n: int) -> ActionSpec:
    """so(n) rotation generators E_ab - E_ba plus the reflection diag(-1,1,...,1)."""
    gens = []
    for a in range(n):
        for b in range(a + 1, n):
            m = [[Fraction(0)] * n for _ in range(n)]
            m[a][b] = Fraction(1)
            m[b][a] = Fraction(-1)
            gens.append(mat(m))
    refl = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        refl[i][i] = Fraction(-1 if i == 0 else 1)
    return ActionSpec(tuple(gens), (mat(refl),), label=f"orthogonal({n})")


# -- validation ----------------------------------------------------------------


def _shape(M) -> str:
    """The shape of a matrix as a list of rows: "3x2/3" has ragged rows."""
    return f"{len(M)}x{'/'.join(map(str, sorted({len(row) for row in M}))) or 0}"


def _columns(M, dim: int) -> tuple:
    """Column g of the dim x dim rational matrix M as the tuple of its nonzero
    (j, M[j][g]); ValueError when M has another shape."""
    if len(M) != dim or any(len(row) != dim for row in M):  # the empty M is 0x0
        raise ValueError(f"action matrix of shape {_shape(M)} on an algebra of dim {dim}")
    return tuple(tuple((j, _exact(M[j][g])) for j in range(dim) if M[j][g]) for g in range(dim))


def _derivation_laws(spec: LieSpec, generators):
    """(kind, witness) for each failure of a map rho in generators, in index order:
    "derivation" (gi, a, b, i) where coordinate i of rho[a, b] - [rho a, b] - [a, rho b]
    is nonzero, and "skew" (gi, a, b) where B(rho a, b) + B(a, rho b) != 0.
    Each rho is given by its sparse columns, as ``_columns`` makes them."""
    n = spec.dim
    B = spec.form
    nz = spec.brackets  # the identity sums run over nonzero constants
    for gi, col in enumerate(generators):
        for a in range(n):
            for b in range(n):
                s = {}
                for l, v in nz[a][b]:
                    for i, r in col[l]:
                        s[i] = s.get(i, 0) + v * r
                for p, r in col[a]:
                    for i, v in nz[p][b]:
                        s[i] = s.get(i, 0) - r * v
                for p, r in col[b]:
                    for i, v in nz[a][p]:
                        s[i] = s.get(i, 0) - r * v
                for i in sorted(s):
                    if s[i] != 0:
                        yield "derivation", (gi, a, b, i)
                t = sum(r * B[p][b] for p, r in col[a])
                t += sum(r * B[a][p] for p, r in col[b])
                if t != 0:
                    yield "skew", (gi, a, b)


def validate(spec: LieSpec) -> ValidationReport:
    """Check antisymmetry, Jacobi, form symmetry, invariance, nondegeneracy.

    Jacobi and invariance say that each ad_i is a derivation, skew for B; for
    antisymmetric brackets, which ``build_spec`` makes, these laws' witnesses
    are those of the cyclic Jacobi sums and of B([i,j],l) + B(j,[i,l]).
    Column j of ad_i is brackets[i][j].
    """
    n = spec.dim
    rep = ValidationReport()
    for i in range(n):
        for j in range(n):
            cij, cji = dict(spec.brackets[i][j]), dict(spec.brackets[j][i])
            for l in sorted(cij.keys() | cji.keys()):
                if cij.get(l, 0) != -cji.get(l, 0):
                    rep.add("antisymmetry", (i, j, l))
    laws = list(_derivation_laws(spec, spec.brackets))
    rep.failures += [("jacobi", w) for kind, w in laws if kind == "derivation"]
    for i in range(n):
        for j in range(n):
            if spec.form[i][j] != spec.form[j][i]:
                rep.add("form_symmetry", (i, j))
    rep.failures += [("form_invariance", w) for kind, w in laws if kind == "skew"]
    if linalg.rank([dict(enumerate(row)) for row in spec.form]) != n:
        rep.add("form_nondegenerate", ())
    return rep


def validate_action(spec: LieSpec, action: ActionSpec) -> ValidationReport:
    """Check derivation/skew laws for lie generators and preservation for finite elements."""
    n = spec.dim
    B = spec.form
    rep = ValidationReport()
    rep.failures += _derivation_laws(spec, [_columns(rho, n) for rho in action.lie_generators])
    nz = spec.brackets
    for mi, M in enumerate(action.finite_elements):
        col = _columns(M, n)
        for a in range(n):
            for b in range(n):
                # M[a, b] - [M a, M b], per output coordinate i
                s = {}
                for l, v in nz[a][b]:
                    for i, x in col[l]:
                        s[i] = s.get(i, 0) + v * x
                for p, x in col[a]:
                    for q, y in col[b]:
                        for i, v in nz[p][q]:
                            s[i] = s.get(i, 0) - x * y * v
                for i in sorted(s):
                    if s[i] != 0:
                        rep.add("finite_bracket", (mi, a, b, i))
                t = sum(x * y * B[p][q] for p, x in col[a] for q, y in col[b])
                if t != B[a][b]:
                    rep.add("finite_form", (mi, a, b))
    return rep


# -- config-file ingestion -------------------------------------------------------

CONFIG_DOC = """\
Algebra config format (key-value text):

  [algebra]
  dim = 3
  labels = x y h

  [brackets]          # entries "i j l = c" meaning [xi_i, xi_j] has c*xi_l;
  0 1 2 = 1           # the antisymmetric completion is applied automatically
  2 0 0 = 2
  2 1 1 = -2

  [form]              # entries "i j = b", completed symmetrically
  0 1 = 1
  2 2 = 2

  [action]            # optional: blocks of dim rows, opened by 'lie' or 'finite'
  lie
  0 0 0
  0 0 0
  0 0 0
"""


def parse_config(text: str, name: str = "config"):
    """Parse the key-value algebra document; returns (LieSpec, ActionSpec or None).

    A malformed line raises ValueError naming its number and text.
    """
    section = None
    dim = None
    labels = None
    tables = {"brackets": {}, "form": {}}
    at = {}  # "labels" or (section, key) -> the line that gave it
    blocks = []  # (kind, rows, the line that opened the block)
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {number}: {raw!r}"
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
            elif section == "algebra":
                key, _, val = line.partition("=")
                key = key.strip().lower()
                if key == "dim":
                    dim = int(val)
                    if dim < 1:
                        raise ValueError(f"dim {dim} is not positive")
                elif key == "labels":
                    labels = val.split()
                    at["labels"] = where
                else:
                    raise ValueError(f"unknown [algebra] key {key!r}")
            elif section in tables:
                lhs, eq, val = line.partition("=")
                table, width = tables[section], 3 if section == "brackets" else 2
                key = tuple(int(t) for t in lhs.split())
                if len(key) != width or not eq:
                    raise ValueError(f"[{section}] needs {width} indices and '= value'")
                if key in table:
                    raise ValueError(f"repeated [{section}] key {' '.join(map(str, key))}")
                table[key] = Fraction(val.strip())
                at[section, key] = where
            elif section == "action":
                if line.lower() in ("lie", "finite"):
                    blocks.append((line.lower(), [], where))
                elif not blocks:
                    raise ValueError("[action] rows must follow a 'lie' or 'finite' line")
                else:
                    blocks[-1][1].append([Fraction(t) for t in line.split()])
            else:
                raise ValueError("line outside any known section")
        except ZeroDivisionError:
            raise ValueError(f"zero denominator, {where}") from None
        except ValueError as exc:
            raise ValueError(f"{exc}, {where}") from None
    if dim is None:
        raise ValueError("config is missing [algebra] dim")
    _check_dim(dim)  # before the O(dim) default labels
    if labels is None:
        labels = [f"g{i}" for i in range(dim)]
    elif len(labels) != dim:
        raise ValueError(f"label count {len(labels)} does not match dim {dim}, {at['labels']}")
    for t, label in enumerate(labels):
        if label in labels[:t]:
            raise ValueError(f"repeated label {label!r}, {at['labels']}")
    for what, section in (("bracket", "brackets"), ("form", "form")):
        for key in tables[section]:
            if not all(0 <= t < dim for t in key):
                raise ValueError(f"{what} index out of range: {key}, {at[section, key]}")
    spec = build_spec(dim, labels, tables["brackets"], tables["form"], name=name)
    action = None
    if blocks:
        lie_gens = []
        finite = []
        for kind, rows, where in blocks:
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError(f"{kind} action block is not {dim}x{dim}, {where}")
            (lie_gens if kind == "lie" else finite).append(mat(rows))
        action = ActionSpec(tuple(lie_gens), tuple(finite), label=f"{name}-action")
    return spec, action


def spec_to_json(spec: LieSpec) -> dict:
    """Canonical JSON form echoed by the CLI after validation."""
    return {
        "name": spec.name,
        "dim": spec.dim,
        "labels": list(spec.labels),
        "brackets": [
            {"i": i, "j": j, "l": l, "c": rational_to_str(c)}
            for i, row in enumerate(spec.brackets)
            for j, vec in enumerate(row)
            for l, c in vec
        ],
        "form": [
            {"i": i, "j": j, "b": rational_to_str(spec.form[i][j])}
            for i in range(spec.dim)
            for j in range(spec.dim)
            if spec.form[i][j]
        ],
    }


def builtin_algebra(name: str) -> LieSpec:
    """Resolve 'sl2' or 'heisenberg<n>' to a spec."""
    if name == "sl2":
        return sl2_spec()
    if name.startswith("heisenberg"):
        tail = name[len("heisenberg"):]
        if tail.isdigit() and int(tail) >= 1:
            return abelian(int(tail))
    raise KeyError(f"unknown built-in algebra {name!r}")
