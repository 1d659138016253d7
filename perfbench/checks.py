"""Output checks for the curlsym benchmark.

Nothing here imports curlsym.  Expressions printed by the program are read
with Python's own `ast` module (after `^` -> `**`) and evaluated over
`Fraction`, over the exact polynomial type `Poly` below, or over floats, so
every verdict rests on arithmetic the program does not share.  Each
`check_*` function raises `CheckError` with a short reason on the first
disagreement.
"""

from __future__ import annotations

import ast
import math
import random
from fractions import Fraction

BASE_VARS = ("x", "y", "z", "u", "v", "w")
FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


class CheckError(Exception):
    """An output of the program failed an independent check."""


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


# --- reading printed expressions -------------------------------------------

_ALLOWED = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
    ast.UAdd,
)


class _ExactConstants(ast.NodeTransformer):
    def visit_Constant(self, node):
        return ast.copy_location(
            ast.Call(ast.Name("_F", ast.Load()), [node], []), node
        )


def compile_expression(text: str, exact: bool = False):
    """Compile one printed expression to a code object evaluated by
    `evaluate`.  Only arithmetic, names and sin/cos/exp/sqrt are accepted;
    with `exact` every literal becomes a Fraction, so 1/2 stays 1/2."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as e:
        raise CheckError(f"unreadable expression {text!r}: {e}") from None
    for node in ast.walk(tree):
        require(isinstance(node, _ALLOWED), f"unexpected syntax in {text!r}")
        if isinstance(node, ast.Call):
            require(
                isinstance(node.func, ast.Name) and node.func.id in FUNCS
                and len(node.args) == 1 and not node.keywords,
                f"unexpected call in {text!r}",
            )
        if isinstance(node, ast.Constant):
            require(
                isinstance(node.value, (int, float))
                and not isinstance(node.value, bool),
                f"unexpected literal in {text!r}",
            )
    if exact:
        tree = ast.fix_missing_locations(_ExactConstants().visit(tree))
    return compile(tree, "<expr>", "eval")


def evaluate(code, env: dict):
    scope = {"__builtins__": {}, "_F": Fraction}
    scope.update(FUNCS)
    try:
        return eval(code, scope, env)  # noqa: S307 - AST whitelisted above
    except NameError as e:
        raise CheckError(f"expression uses an unknown name: {e}") from None


def names_in(text: str) -> set:
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id not in FUNCS
    }


# --- exact polynomials in x, y, z, u, v, w ----------------------------------


class Poly:
    """Polynomial over Fraction; terms map exponent 6-tuples to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def var(i: int) -> "Poly":
        m = [0] * 6
        m[i] = 1
        return Poly({tuple(m): Fraction(1)})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0,) * 6: Fraction(c)})

    @staticmethod
    def _lift(o) -> "Poly":
        return o if isinstance(o, Poly) else Poly.const(o)

    def __add__(self, o):
        o = Poly._lift(o)
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __pos__(self):
        return self

    def __sub__(self, o):
        return self + (-Poly._lift(o))

    def __rsub__(self, o):
        return Poly._lift(o) - self

    def __mul__(self, o):
        o = Poly._lift(o)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Poly):
            require(
                set(o.terms) <= {(0,) * 6} and o.terms,
                "division by a non-constant in a polynomial coefficient",
            )
            o = o.terms[(0,) * 6]
        return Poly({m: c / o for m, c in self.terms.items()})

    def __pow__(self, n):
        n = int(n)
        require(n >= 0, "negative power in a polynomial coefficient")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, o):
        return isinstance(o, Poly) and self.terms == o.terms

    def diff(self, i: int) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = list(m)
                m2[i] -= 1
                out[tuple(m2)] = c * m[i]
        return Poly(out)

    def at(self, point) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for p, e in zip(point, m):
                if e:
                    term *= p**e
            total += term
        return total


_POLY_VARS = {name: Poly.var(i) for i, name in enumerate(BASE_VARS)}


def parse_generator(text: str) -> tuple:
    """'zeta | eta | theta | phi | lam | psi' -> six Polys."""
    parts = [p.strip() for p in text.split("|")]
    require(len(parts) == 6, f"generator needs six coefficients: {text!r}")
    out = []
    for p in parts:
        val = evaluate(compile_expression(p, exact=True), dict(_POLY_VARS))
        out.append(Poly._lift(val))
    return tuple(out)


def generator_text(gen) -> str:
    """Six Polys in the program's input grammar, ' | '-separated."""
    cells = []
    for p in gen:
        terms = []
        for m, c in sorted(p.terms.items(), reverse=True):
            factors = [f"({c})"] + [
                v if e == 1 else f"{v}^{e}" for v, e in zip(BASE_VARS, m) if e
            ]
            terms.append("*".join(factors))
        cells.append(" + ".join(terms) or "0")
    return " | ".join(cells)


def load_basis_file(path) -> list:
    """The reference bases ship as 'Xk: c1 | ... | c6' lines."""
    gens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                gens.append(parse_generator(line.partition(":")[2]))
    return gens


# --- exact linear algebra (deliberately separate from curlsym.ratlin) --------


def rref(rows, ncols: int):
    """Reduced row echelon form over the first ncols columns (extra columns
    ride along); returns (rows, pivot columns)."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def _vectors(gens, index):
    rows = []
    for g in gens:
        row = [Fraction(0)] * len(index)
        for slot, p in enumerate(g):
            for m, c in p.terms.items():
                row[index[(slot, m)]] = c
        rows.append(row)
    return rows


def check_span_equal(gens, basis, label: str):
    index = _key_index(list(gens) + list(basis))
    a, b = _vectors(gens, index), _vectors(basis, index)
    ra, rb, rab = rank(a), rank(b), rank(a + b)
    require(ra == len(gens), f"{label}: generators are linearly dependent")
    require(ra == rb == rab, f"{label}: span differs from the bundled basis")


# --- symmetry condition by the prolongation formula --------------------------

# (p, q, r, n) with p^2 + q^2 + r^2 = n^2, so |B| is rational at the point
_QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9),
               (2, 6, 9, 11), (6, 6, 7, 11), (3, 4, 12, 13), (2, 10, 11, 15))


def _rational(rng, lo=-3, hi=3, den=7) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def is_symmetry(gen, system: str, rng, trials: int = 3) -> bool:
    """Whether the prolongation of X annihilates curl B - |B| B (and div B for 'blair') on
    the solution manifold, tested exactly at random rational points.

    The point has rational |B| (a scaled Pythagorean quadruple with random
    signs); free jets are random, the eliminated jets are solved from the
    system, and the prolonged residuals are evaluated from the first
    prolongation formula phi_a^(i) = D_i phi_a - sum_j u^a_j D_i xi^j."""
    require(system in ("curl-absB", "blair"), f"unknown system {system}")
    grads = [[p.diff(k) for k in range(6)] for p in gen]
    for _ in range(trials):
        p, q, r, n = rng.choice(_QUADRUPLES)
        perm = [p, q, r]
        rng.shuffle(perm)
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        uvw = [s * c * rng.choice((-1, 1)) for c in perm]
        f = s * n  # |B|
        point = [_rational(rng) for _ in range(3)] + uvw
        # jets J[a][i] = d u^a / d x^i
        J = [[_rational(rng) for _ in range(3)] for _ in range(3)]
        u, v, w = uvw
        J[2][1] = J[1][2] + u * f  # w_y
        J[0][2] = J[2][0] + v * f  # u_z
        J[1][0] = J[0][1] + w * f  # v_x
        if system == "blair":
            J[0][0] = -J[1][1] - J[2][2]  # u_x
        val = [c.at(point) for c in gen]
        grad = [[g.at(point) for g in row] for row in grads]

        def D(slot, i):  # total derivative D_i of a coefficient
            return grad[slot][i] + sum(J[b][i] * grad[slot][3 + b] for b in range(3))

        def phi1(a, i):  # coefficient of d/du^a_i in the prolongation
            return D(3 + a, i) - sum(J[a][j] * D(j, i) for j in range(3))

        xf = sum(val[3 + b] * uvw[b] for b in range(3)) / f  # X(|B|)
        res = [
            phi1(2, 1) - phi1(1, 2) - val[3] * f - u * xf,
            phi1(0, 2) - phi1(2, 0) - val[4] * f - v * xf,
            phi1(1, 0) - phi1(0, 1) - val[5] * f - w * xf,
        ]
        if system == "blair":
            res.append(phi1(0, 0) + phi1(1, 1) + phi1(2, 2))
        if any(res):
            return False
    return True


def check_generators(gen_texts, system: str, basis, rng, label: str):
    gens = [parse_generator(t) for t in gen_texts]
    for k, g in enumerate(gens, 1):
        require(is_symmetry(g, system, rng), f"{label}: generator G{k} is not a symmetry")
    check_span_equal(gens, basis, label)


# --- brackets, structure constants and the adjoint ----------------------------


def apply_field(gen, p: Poly) -> Poly:
    out = Poly()
    for k in range(6):
        if gen[k].terms:
            out = out + gen[k] * p.diff(k)
    return out


def bracket(a, b) -> tuple:
    return tuple(apply_field(a, cb) - apply_field(b, ca) for ca, cb in zip(a, b))


class Vec:
    """Coordinate vector over X1..Xn, for reading printed combinations."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = list(c)

    def __add__(self, o):
        if not isinstance(o, Vec):
            require(o == 0, "scalar added to a combination")
            return self
        return Vec(a + b for a, b in zip(self.c, o.c))

    __radd__ = __add__

    def __neg__(self):
        return Vec(-a for a in self.c)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, k):
        require(not isinstance(k, Vec), "product of two generators")
        return Vec(a * k for a in self.c)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return Vec(a / k for a in self.c)


def read_combination(text: str, n: int, env=None, exact: bool = True) -> list:
    units = {f"X{k}": Vec([1 if i == k - 1 else 0 for i in range(n)])
             for k in range(1, n + 1)}
    units.update(env or {})
    val = evaluate(compile_expression(text, exact=exact), units)
    if isinstance(val, Vec):
        return val.c
    require(val == 0, f"combination {text!r} is a bare scalar")
    return [0] * n


def read_table(entries: dict, n: int) -> list:
    """{'Xi,Xj': text} -> constants c[i][j] (0-based) as Fraction lists."""
    require(len(entries) == n * n, f"table has {len(entries)} entries, wanted {n * n}")
    c = [[None] * n for _ in range(n)]
    for key, text in entries.items():
        i, j = (int(t.strip()[1:]) - 1 for t in key.split(","))
        c[i][j] = [Fraction(x) for x in read_combination(text, n)]
    return c


def _key_index(fields):
    keys = sorted({(s, m) for g in fields for s, p in enumerate(g) for m in p.terms})
    return {k: i for i, k in enumerate(keys)}


def coordinates(basis, target) -> list:
    """Exact c with sum_k c_k basis_k = target, by elimination on the
    augmented system; CheckError if target is outside the span."""
    index = _key_index(list(basis) + [target])
    cols = _vectors(basis, index)
    (rhs,) = _vectors([target], index)
    n = len(basis)
    rows = [[col[r] for col in cols] + [rhs[r]] for r in range(len(index))]
    rows, pivots = rref(rows, n)
    require(pivots == list(range(n)), "basis is linearly dependent")
    require(not any(row[n] for row in rows[n:]), "bracket leaves the span of the basis")
    return [rows[k][n] for k in range(n)]


def structure_constants(basis) -> list:
    """c[i][j] = coordinates of [Xi, Xj] (0-based), recomputed here."""
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = coordinates(basis, bracket(basis[i], basis[j]))
            c[j][i] = [-x for x in c[i][j]]
    return c


def check_structure_constants(c, basis, label: str):
    n = len(basis)
    for i in range(n):
        require(not any(c[i][i]), f"{label}: [X{i+1},X{i+1}] is not 0")
        for j in range(n):
            require(c[i][j] == [-x for x in c[j][i]],
                    f"{label}: antisymmetry fails at ({i+1},{j+1})")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    acc = sum(
                        c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                        + c[k][i][m] * c[m][j][l]
                        for m in range(n)
                    )
                    require(acc == 0, f"{label}: Jacobi fails at ({i+1},{j+1},{k+1})")
    for i in range(n):
        for j in range(i + 1, n):
            combo = [Poly() for _ in range(6)]
            for m in range(n):
                if c[i][j][m]:
                    combo = [a + basis[m][s] * c[i][j][m] for s, a in enumerate(combo)]
            require(tuple(combo) == bracket(basis[i], basis[j]),
                    f"{label}: [X{i+1},X{j+1}] differs from the recomputed bracket")


def adjoint_taylor(c, i: int, j: int, eps: Fraction, terms: int = 40) -> list:
    """exp(-eps*ad_i) e_j as a Taylor series in exact arithmetic (0-based
    i, j); ad_i maps e_l to the coordinates of [Xi, Xl]."""
    n = len(c)
    vec = [Fraction(int(k == j)) for k in range(n)]
    total = list(vec)
    for t in range(1, terms + 1):
        nxt = [Fraction(0)] * n
        for l, cl in enumerate(vec):
            if cl:
                for k in range(n):
                    nxt[k] += cl * c[i][l][k]
        vec = [-eps * x / t for x in nxt]
        total = [a + b for a, b in zip(total, vec)]
    return [float(x) for x in total]


def check_adjoint_entries(entries: dict, c, eps: float, label: str, tol=1e-12):
    n = len(c)
    exact_eps = Fraction(eps)
    for key, text in entries.items():
        i, j = (int(t.strip()[1:]) - 1 for t in key.split(","))
        if isinstance(text, str):
            got = read_combination(text, n, {"eps": eps}, exact=False)
        else:
            got = text
        want = adjoint_taylor(c, i, j, exact_eps)
        err = max(abs(float(a) - b) for a, b in zip(got, want))
        require(err <= tol, f"{label}: Ad entry {key} off by {err:.3e} at eps={eps}")


# --- numeric fields ------------------------------------------------------------


def field_from_texts(texts, env: dict):
    codes = [compile_expression(t) for t in texts]

    def field(x, y, z):
        scope = dict(env, x=x, y=y, z=z)
        return tuple(float(evaluate(cd, scope)) for cd in codes)

    return field


def jacobian(field, p, h=1e-3):
    """d field_a / d x_i by the fourth-order five-point central stencil."""
    jac = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        samples = {}
        for k in (-2, -1, 1, 2):
            q = list(p)
            q[i] += k * h
            samples[k] = field(*q)
        for a in range(3):
            jac[a][i] = (samples[-2][a] - 8 * samples[-1][a] + 8 * samples[1][a]
                         - samples[2][a]) / (12 * h)
    return jac


def curl_residual(field, p) -> tuple:
    """(max |curl B - |B| B|, |div B|) at p."""
    J = jacobian(field, p)
    u, v, w = field(*p)
    mag = math.sqrt(u * u + v * v + w * w)
    curl = (J[2][1] - J[1][2], J[0][2] - J[2][0], J[1][0] - J[0][1])
    res = max(abs(cc - bc * mag) for cc, bc in zip(curl, (u, v, w)))
    return res, abs(J[0][0] + J[1][1] + J[2][2])


def check_field(field, points, divergence_free: bool, label: str, tol=1e-7):
    for p in points:
        res, div = curl_residual(field, p)
        require(res <= tol, f"{label}: |curl B - |B|B| = {res:.3e} at {p}")
        if divergence_free:
            require(div <= tol, f"{label}: |div B| = {div:.3e} at {p}")


def check_moved(field, expected, points, label: str, tol=1e-9):
    """The transformed field against the original at the group-moved point."""
    for p in points:
        got, want = field(*p), expected(*p)
        err = max(abs(a - b) for a, b in zip(got, want))
        require(err <= tol * (1 + max(abs(b) for b in want)),
                f"{label}: differs from g.B by {err:.3e} at {p}")


def divergence_is_zero(field, points, tol=1e-7) -> bool:
    return all(curl_residual(field, p)[1] <= tol for p in points)


# The two solutions the program ships, written out here so the checks do not
# read them from the program.
def B1(x, y, z):
    return (math.sin(z), math.cos(z), 0.0)


def B2(x, y, z):
    d = (1 + x * x + y * y + z * z) ** 2
    return (8 * (x * z - y) / d, 8 * (x + y * z) / d, 4 * (1 + z * z - x * x - y * y) / d)


_PLANES = {1: (0, 1), 2: (1, 2), 3: (0, 2)}


def moved_field(base, family: int, eps: float):
    """The field g_eps . B for the seven families: rotation of a coordinate
    plane with the matching components (B'(x) = R B(R^-1 x)), translation
    along an axis (B'(x) = B(x - eps e)), and the scaling
    B'(x) = e^-eps B(e^-eps x)."""
    c, s = math.cos(eps), math.sin(eps)

    def field(x, y, z):
        p = [x, y, z]
        if family in _PLANES:
            i, j = _PLANES[family]
            q = list(p)
            q[i], q[j] = c * p[i] + s * p[j], -s * p[i] + c * p[j]
            b = list(base(*q))
            b[i], b[j] = c * b[i] - s * b[j], s * b[i] + c * b[j]
            return tuple(b)
        if family in (4, 5, 6):
            p[family - 4] -= eps
            return base(*p)
        k = math.exp(-eps)
        return tuple(k * t for t in base(k * x, k * y, k * z))

    return field


def sample_points(rng, n: int, box: float = 2.0) -> list:
    return [tuple(rng.uniform(-box, box) for _ in range(3)) for _ in range(n)]


# --- profile constraints -------------------------------------------------------

CONSTRAINT_LABELS = {
    "radial homogeneity (Euler-type) constraint": 0,
    "xy rotation-moment constraint": 1,
    "xz rotation-moment constraint": 2,
    "yz rotation-moment constraint": 3,
}


def profile_constraints(text: str, rng, points: int = 12, tol=1e-7) -> list:
    """For f(u, v, w): whether u f_u + v f_v + w f_w - f, u f_v - v f_u,
    u f_w - w f_u and v f_w - w f_v vanish, by central differences."""
    code = compile_expression(text)

    def f(u, v, w):
        return float(evaluate(code, {"u": u, "v": v, "w": w,
                                     "R": math.sqrt(u * u + v * v + w * w)}))

    ok = [True] * 4
    h = 1e-4
    for _ in range(points):
        p = [rng.uniform(0.5, 2.0) * rng.choice((-1, 1)) for _ in range(3)]
        g = []
        for i in range(3):
            hi = list(p)
            lo = list(p)
            hi[i] += h
            lo[i] -= h
            g.append((f(*hi) - f(*lo)) / (2 * h))
        u, v, w = p
        vals = (u * g[0] + v * g[1] + w * g[2] - f(*p), u * g[1] - v * g[0],
                u * g[2] - w * g[0], v * g[2] - w * g[1])
        ok = [k and abs(val) <= tol * (1 + abs(f(*p))) for k, val in zip(ok, vals)]
    return ok


# --- reduced ODE tables --------------------------------------------------------

RK4_TRANSLATION_STEP_RATIO = (12.0, 20.0)


def translation_bound(step: float, span: float, steps: int) -> float:
    """RK4 global error on the unit-speed rotation (sin z, cos z) is of order
    span * h^4 (the constant is 1/120 here, so this leaves room), plus one
    rounding per step."""
    return span * step**4 + steps * 2.0**-50


def check_translation_table(points, g, h, step: float, label: str):
    n = len(points)
    worst = max(max(abs(gi - math.sin(t)), abs(hi - math.cos(t)))
                for t, gi, hi in zip(points, g, h))
    bound = translation_bound(step, points[-1] - points[0], n - 1)
    require(worst <= bound,
            f"{label}: deviation {worst:.3e} from (sin z, cos z) above {bound:.3e}")
    return worst


def rotation_bound(step: float, r0: float) -> float:
    """Five-point stencil error h^4/30 |y^(5)| near the start r0, where the
    beta/r term gives beta'' ~ r0^2/r^3 and so |beta^(5)| <= 60/r0^4, plus
    the stencil's rounding, about 1e-14/h on values of order 1."""
    return 2 * step**4 / r0**4 + 1e-14 / step


def rotation_ode_residual(points, beta, gamma, step: float) -> float:
    """Max over interior nodes of |y' - rhs(y)| for beta' = gamma*s - beta/r,
    gamma' = -beta*s (s = |(beta, gamma)|), with y' from the five-point
    stencil on the table's uniform nodes."""
    worst = 0.0
    for k in range(2, len(points) - 2):
        if abs(points[k + 2] - points[k - 2] - 4 * step) > 1e-9 * step:
            continue  # the last node may close the span with a short step
        r, b, c = points[k], beta[k], gamma[k]
        s = math.hypot(b, c)
        db = (beta[k - 2] - 8 * beta[k - 1] + 8 * beta[k + 1] - beta[k + 2]) / (12 * step)
        dc = (gamma[k - 2] - 8 * gamma[k - 1] + 8 * gamma[k + 1] - gamma[k + 2]) / (12 * step)
        worst = max(worst, abs(db - (c * s - b / r)), abs(dc + b * s))
    return worst


def draw_rng(seed: int, stream: str) -> random.Random:
    """Independent, reproducible random streams per purpose."""
    return random.Random(f"{seed}:{stream}")
