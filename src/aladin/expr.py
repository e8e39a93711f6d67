"""Expression graphs with exact symbolic differentiation, run as flat tapes.

Objective and constraint functions are built as immutable DAGs over decision
variables ``var(i)`` and parameters ``param(j)``.  Derivatives (gradients,
Jacobians, Lagrangian Hessians) are obtained by symbolic graph rewriting with
constant folding.

Evaluation does not walk the graphs.  On first use, each root set of a
``VectorFunction`` (its outputs, its gradient graphs, or the Hessian of one
output) is compiled once into a ``_Tape``, in the manner of CasADi's SX
virtual machine: the nonconstant nodes in post-order, deduplicated by node
identity, one register each.  Roots that are constants are folded into a
stored result array, so a constant Jacobian or Hessian costs one copy per
call; an output with all-constant gradient graphs has a zero Hessian and no
Hessian graphs at all.  The tapes apply the same operator functions in the
same order as a direct post-order walk of the graphs, so values, overflow to
inf and ``DomainEvalError`` (naming the failing node) are exactly those of
that walk.  Tapes are read-only once built (their structural ``key``,
computed on first use, is the same whoever computes it) and every call
allocates its own registers and result, so functions may be evaluated from
several threads.

Tapes of equal ``key`` differ only in their constants.  A ``_LaneTape``
stacks such tapes of several blocks and runs them on all the blocks'
points at once; each lane's values and errors are those of its own tape.
A run on a single lane is its own ``_Tape.run``, a run on several lanes
takes one ufunc per instruction: each is the faster on its own traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expression",
    "VectorFunction",
    "DomainEvalError",
    "const",
    "var",
    "param",
    "neg",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "square",
    "evaluate",
    "gradient",
    "jacobian",
    "lagrangian_hessian",
    "expr_from_sexpr",
]

UNARY_OPS = ("neg", "exp", "log", "sin", "cos", "sqrt", "square")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")


class DomainEvalError(ArithmeticError):
    """Evaluation hit an invalid operand (log/sqrt of a negative, zero divide)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class Expression:
    """One node of an immutable expression DAG.

    ``kind`` is ``"const"``, ``"var"``, ``"param"`` or an operator name from
    ``UNARY_OPS`` / ``BINARY_OPS``.  Leaves carry ``value`` (constants) or
    ``index`` (variables/parameters); interior nodes reference children in
    ``args``.
    """

    kind: str
    value: float = 0.0
    index: int = 0
    args: tuple["Expression", ...] = field(default=())

    # -- sugar so graphs can be written as ordinary arithmetic -------------
    def __add__(self, other):
        return _binary("add", self, _wrap(other))

    def __radd__(self, other):
        return _binary("add", _wrap(other), self)

    def __sub__(self, other):
        return _binary("sub", self, _wrap(other))

    def __rsub__(self, other):
        return _binary("sub", _wrap(other), self)

    def __mul__(self, other):
        return _binary("mul", self, _wrap(other))

    def __rmul__(self, other):
        return _binary("mul", _wrap(other), self)

    def __truediv__(self, other):
        return _binary("div", self, _wrap(other))

    def __rtruediv__(self, other):
        return _binary("div", _wrap(other), self)

    def __pow__(self, other):
        return _binary("pow", self, _wrap(other))

    def __neg__(self):
        return _unary("neg", self)

    def __repr__(self):
        return f"Expression({self.to_sexpr()!r})"

    def to_sexpr(self):
        """Render as the nested-list prefix form used by the JSON schema."""
        if self.kind == "const":
            return self.value
        if self.kind == "var":
            return ["var", self.index]
        if self.kind == "param":
            return ["param", self.index]
        return [self.kind] + [a.to_sexpr() for a in self.args]


def _wrap(x):
    if isinstance(x, Expression):
        return x
    return const(float(x))


def const(value):
    return Expression("const", value=float(value))


def var(index):
    if index < 0:
        raise ValueError("variable index must be nonnegative")
    return Expression("var", index=int(index))


def param(index):
    if index < 0:
        raise ValueError("parameter index must be nonnegative")
    return Expression("param", index=int(index))


_ZERO = const(0.0)
_ONE = const(1.0)


def _is_const(e, v=None):
    return e.kind == "const" and (v is None or e.value == v)


def _unary(op, a):
    if a.kind == "const":
        return const(_apply_unary(op, a.value, None))
    return Expression(op, args=(a,))


def _binary(op, a, b):
    if a.kind == "const" and b.kind == "const":
        return const(_apply_binary(op, a.value, b.value, None))
    # identity folds keep derivative graphs small
    if op == "add":
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    elif op == "sub":
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return _unary("neg", b)
    elif op == "mul":
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return _ZERO
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
    elif op == "div":
        if _is_const(a, 0.0):
            return _ZERO
        if _is_const(b, 1.0):
            return a
    elif op == "pow":
        if _is_const(b, 1.0):
            return a
        if _is_const(b, 0.0):
            return _ONE
        if _is_const(b, 2.0):
            return _unary("square", a)
    return Expression(op, args=(a, b))


def neg(a):
    return _unary("neg", _wrap(a))


def exp(a):
    return _unary("exp", _wrap(a))


def log(a):
    return _unary("log", _wrap(a))


def sin(a):
    return _unary("sin", _wrap(a))


def cos(a):
    return _unary("cos", _wrap(a))


def sqrt(a):
    return _unary("sqrt", _wrap(a))


def square(a):
    return _unary("square", _wrap(a))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _apply_unary(op, u, node):
    try:
        if op == "neg":
            return -u
        if op == "exp":
            return math.exp(u)
        if op == "log":
            if u <= 0.0:
                raise DomainEvalError(f"log of non-positive value {u!r}", node)
            return math.log(u)
        if op == "sin":
            return math.sin(u)
        if op == "cos":
            return math.cos(u)
        if op == "sqrt":
            if u < 0.0:
                raise DomainEvalError(f"sqrt of negative value {u!r}", node)
            return math.sqrt(u)
        if op == "square":
            return u * u
    except OverflowError:
        return math.inf if op != "neg" else -math.inf
    raise ValueError(f"unknown unary op {op!r}")


def _apply_binary(op, u, v, node):
    try:
        if op == "add":
            return u + v
        if op == "sub":
            return u - v
        if op == "mul":
            return u * v
        if op == "div":
            if v == 0.0:
                raise DomainEvalError("division by zero", node)
            return u / v
        if op == "pow":
            try:
                return math.pow(u, v)
            except ValueError:
                raise DomainEvalError(
                    f"pow({u!r}, {v!r}) is undefined over the reals", node
                ) from None
    except OverflowError:
        return math.inf
    raise ValueError(f"unknown binary op {op!r}")


class _Tape:
    """One compiled root set: a flat instruction list over numbered registers.

    ``base`` is the flat result with every constant root already in place;
    ``init`` holds the register file's starting values (constant operands
    filled in, every other register 0.0).  ``x_loads``/``p_loads`` copy x
    and p entries into their registers, ``code`` runs the operator nodes in
    the walk order of the graph, and ``out_pos``/``out_reg`` scatter the
    nonconstant roots into the result.  Evaluation copies ``base`` and
    ``init``, so every call gets fresh registers and a fresh result.
    """

    __slots__ = ("base", "init", "x_loads", "p_loads", "code", "out_pos",
                 "out_reg", "_key")

    @property
    def key(self):
        """The tape's structure, computed once: everything but its constants.

        Two tapes with equal keys run the same instructions on the same
        registers, load the same x and p entries and scatter into the same
        result positions; they differ at most in the values of ``init`` and
        ``base``.
        """
        try:
            return self._key
        except AttributeError:
            self._key = (
                tuple(op[:4] for op in self.code), tuple(self.x_loads),
                tuple(self.p_loads), tuple(self.out_pos.tolist()),
                tuple(self.out_reg), len(self.init), self.base.size,
            )
            return self._key

    def run(self, x, p):
        out = self.base.copy()
        if not self.out_reg:
            return out
        reg = self.init.copy()
        for r, i in self.x_loads:
            reg[r] = x[i]
        for r, i in self.p_loads:
            reg[r] = p[i]
        for op, dst, a, b, node in self.code:
            if b < 0:
                reg[dst] = _apply_unary(op, reg[a], node)
            else:
                reg[dst] = _apply_binary(op, reg[a], reg[b], node)
        out[self.out_pos] = [reg[r] for r in self.out_reg]
        return out


# operators whose numpy ufuncs round exactly as the scalar operators do; the
# transcendentals are left to libm, lane by lane, so that every lane's value
# is bit for bit that of _Tape.run
_LANE_UFUNCS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
    "neg": np.negative, "square": np.square, "sqrt": np.sqrt,
}


class _LaneTape:
    """Structurally equal tapes of one or more blocks, run on their lanes.

    Built from tapes with equal ``key``; lane k is the block of ``tapes[k]``.
    A run on one lane is that lane's ``_Tape.run``.  A run on several has
    registers as rows over the lanes: ``init`` is (n_reg, n_lanes) and
    ``base`` (n_lanes, size), each lane's constants taken from its own tape.
    Exactly rounded operators then run as one ufunc call per instruction;
    exp, log, sin, cos and pow run lane by lane through the scalar operator
    functions.
    """

    def __init__(self, tapes):
        first = tapes[0]
        self.tapes = tapes
        self.init = np.array([t.init for t in tapes]).T.copy()
        self.base = np.array([t.base for t in tapes])
        self.x_regs = [r for r, _ in first.x_loads]
        self.x_idx = [i for _, i in first.x_loads]
        self.p_regs = [r for r, _ in first.p_loads]
        self.p_idx = [i for _, i in first.p_loads]
        self.code = [
            (op, _LANE_UFUNCS.get(op), dst, a, b, k)
            for k, (op, dst, a, b, _) in enumerate(first.code)
        ]
        self.out_pos = first.out_pos
        self.out_reg = np.array(first.out_reg, dtype=np.intp)

    def _fail(self, errors, lanes, row, X, P):
        """Put the error of this row's lane into ``errors``, unless it has one.

        The lane's own tape runs on its row of X and P, so the error is the
        one solving its block alone raises, node and message alike.
        """
        if row in errors:
            return
        try:
            self.tapes[lanes[row]].run(X[row], P[row])
        except DomainEvalError as err:
            errors[row] = err

    def run(self, X, P, lanes, errors):
        """Rows of results for the ``lanes``, whose x and p are rows of X, P.

        A single lane runs its own tape's ``_Tape.run`` on row 0, several
        run ``_run_lanes``.  A lane that leaves an operator's domain has its
        first DomainEvalError put in ``errors`` under its row (an earlier
        error of that row is kept); the rest of its row is not meaningful.
        """
        if len(lanes) != 1:
            return self._run_lanes(X, P, lanes, errors)
        try:
            return self.tapes[lanes[0]].run(X[0], P[0])[None]
        except DomainEvalError as err:
            errors.setdefault(0, err)
            return np.full((1, self.base.shape[1]), np.nan)

    def _run_lanes(self, X, P, lanes, errors):
        """``run`` on several lanes, registers being rows over them."""
        out = self.base[lanes]
        if not self.out_reg.size:
            return out
        R = self.init[:, lanes]
        if self.x_regs:
            R[self.x_regs] = X[:, self.x_idx].T
        if self.p_regs:
            R[self.p_regs] = P[:, self.p_idx].T
        reg = list(R)
        for op, fn, dst, a, b, k in self.code:
            u, d = reg[a], reg[dst]
            v = reg[b] if b >= 0 else None
            if fn is None:
                for j in range(u.size):
                    vj = None if v is None else v[j]
                    try:
                        d[j] = _scalar(op, u[j], vj)
                    except DomainEvalError:
                        self._fail(errors, lanes, j, X, P)
                        d[j] = math.nan
                continue
            # sqrt and div skip the lanes outside their domain, which fail
            if op == "sqrt":
                bad = u < 0.0
                fn(u, out=d, where=~bad)
            elif op == "div":
                bad = v == 0.0
                fn(u, v, out=d, where=~bad)
            else:
                fn(u, out=d) if v is None else fn(u, v, out=d)
                continue
            if bad.any():
                for j in np.flatnonzero(bad):
                    self._fail(errors, lanes, j, X, P)
        out[:, self.out_pos] = R[self.out_reg].T
        return out


def _scalar(op, u, v):
    return _apply_unary(op, u, None) if v is None else _apply_binary(op, u, v, None)


_READY = object()  # stack marker in _compile


def _compile(roots, positions, size):
    """Compile ``roots`` into a tape whose result has ``size`` entries.

    Root k fills the flat result indices ``positions[k]``.  Nodes are
    numbered in the post-order of one explicit-stack walk over the roots in
    turn (the last argument of a node is visited first), deduplicated by
    identity: a node shared between roots runs once, and when several
    operands are invalid the DomainEvalError names the first in this order.
    Constant roots go straight into ``base``; constant operands get a
    register but no instruction.
    """
    init, x_loads, p_loads, code = [], [], [], []
    const_pos, const_val, out_pos, out_reg = [], [], [], []
    regs = {}  # id(node) -> register
    for root, pos in zip(roots, positions):
        if root.kind == "const":
            const_pos.extend(pos)
            const_val.extend([root.value] * len(pos))
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            if node is _READY:  # the arguments of the node below are done
                node = stack.pop()
            elif node.args:
                if id(node) not in regs:
                    stack.append(node)
                    stack.append(_READY)
                    for a in node.args:
                        if id(a) not in regs:
                            stack.append(a)
                continue
            key = id(node)
            if key in regs:
                continue
            r = regs[key] = len(init)
            kind = node.kind
            if kind == "const":
                init.append(node.value)
                continue
            init.append(0.0)
            if kind == "var":
                x_loads.append((r, node.index))
            elif kind == "param":
                p_loads.append((r, node.index))
            elif len(node.args) == 1:
                code.append((kind, r, regs[id(node.args[0])], -1, node))
            else:
                a, b = node.args
                code.append((kind, r, regs[id(a)], regs[id(b)], node))
        out_pos.extend(pos)
        out_reg.extend([regs[id(root)]] * len(pos))
    tape = _Tape()
    tape.base = np.zeros(size)
    tape.base[const_pos] = const_val
    tape.init, tape.x_loads, tape.p_loads, tape.code = init, x_loads, p_loads, code
    tape.out_pos = np.array(out_pos, dtype=np.intp)
    tape.out_reg = out_reg
    return tape


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

def diff(e, index):
    """Derivative graph of ``e`` with respect to ``var(index)``."""
    return _diff_memo(e, index, {})


def _diff_memo(e, i, memo):
    key = id(e)
    if key in memo:
        return memo[key]
    kind = e.kind
    if kind == "const" or kind == "param":
        d = _ZERO
    elif kind == "var":
        d = _ONE if e.index == i else _ZERO
    elif kind in UNARY_OPS:
        (a,) = e.args
        da = _diff_memo(a, i, memo)
        if kind == "neg":
            d = _unary("neg", da)
        elif kind == "exp":
            d = _binary("mul", e, da)
        elif kind == "log":
            d = _binary("div", da, a)
        elif kind == "sin":
            d = _binary("mul", _unary("cos", a), da)
        elif kind == "cos":
            d = _unary("neg", _binary("mul", _unary("sin", a), da))
        elif kind == "sqrt":
            d = _binary("div", da, _binary("mul", const(2.0), e))
        else:  # square
            d = _binary("mul", _binary("mul", const(2.0), a), da)
    else:
        a, b = e.args
        da = _diff_memo(a, i, memo)
        db = _diff_memo(b, i, memo)
        if kind == "add":
            d = _binary("add", da, db)
        elif kind == "sub":
            d = _binary("sub", da, db)
        elif kind == "mul":
            d = _binary("add", _binary("mul", da, b), _binary("mul", a, db))
        elif kind == "div":
            d = _binary(
                "sub",
                _binary("div", da, b),
                _binary("div", _binary("mul", a, db), _unary("square", b)),
            )
        else:  # pow
            if b.kind == "const":
                c = b.value
                d = _binary(
                    "mul",
                    _binary("mul", b, _binary("pow", a, const(c - 1.0))),
                    da,
                )
            elif a.kind == "const":
                d = _binary("mul", _binary("mul", e, _unary("log", a)), db)
            else:
                # u^v with both varying: u^v * (v' log u + v u'/u)
                inner = _binary(
                    "add",
                    _binary("mul", db, _unary("log", a)),
                    _binary("div", _binary("mul", b, da), a),
                )
                d = _binary("mul", e, inner)
    memo[key] = d
    return d


# ---------------------------------------------------------------------------
# vector functions
# ---------------------------------------------------------------------------

class VectorFunction:
    """A list of scalar expression outputs over (x, p) of fixed dimensions.

    Each root set is compiled into a ``_Tape`` on its first use and cached:
    the outputs (``evaluate``), the gradient graphs of all outputs
    (``gradient``, ``jacobian``), and, per output, the upper triangle of its
    Hessian (``lagrangian_hessian``).  Constant roots are folded into the
    tape's stored result, so a function whose derivatives are constant
    costs one array copy per call.  An output whose gradient graphs are all
    constant (an affine row) is marked as having a zero Hessian and its
    Hessian graphs are never built.  Of a Hessian's graphs only the nodes
    its tape runs are kept; the gradient graphs stay, as the Hessians
    derive from them.

    Concurrent evaluation is safe: a tape is immutable once built and every
    call allocates its own registers and result.  Two threads compiling the
    same root set at once build equal tapes, and either may be kept.
    """

    def __init__(self, outputs, n_x, n_p=0):
        outputs = tuple(_wrap(o) for o in outputs)
        self.outputs = outputs
        self.n_x = int(n_x)
        self.n_p = int(n_p)
        max_var = max_param = -1
        seen = set()
        stack = list(outputs)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.kind == "var":
                max_var = max(max_var, node.index)
            elif node.kind == "param":
                max_param = max(max_param, node.index)
            stack.extend(node.args)
        if max_var >= self.n_x:
            raise ValueError(
                f"variable index {max_var} out of range for n_x={self.n_x}"
            )
        if max_param >= self.n_p:
            raise ValueError(
                f"parameter index {max_param} out of range for n_p={self.n_p}"
            )
        self._grad_graphs = None
        self._output_tape = None
        self._jacobian_tape = None
        self._hessian_tapes = {}  # output index -> _Tape, or None if affine

    @property
    def n_out(self):
        return len(self.outputs)

    def __repr__(self):
        return f"VectorFunction(n_out={self.n_out}, n_x={self.n_x}, n_p={self.n_p})"

    # -- cache builders -----------------------------------------------------
    def _grads(self):
        if self._grad_graphs is None:
            self._grad_graphs = tuple(
                tuple(diff(o, i) for i in range(self.n_x)) for o in self.outputs
            )
        return self._grad_graphs

    def _compiled_outputs(self):
        if self._output_tape is None:
            self._output_tape = _compile(
                self.outputs, [(k,) for k in range(self.n_out)], self.n_out
            )
        return self._output_tape

    def _compiled_jacobian(self):
        # row-major (n_out, n_x); a scalar function's gradient is its one row
        if self._jacobian_tape is None:
            roots = [g for row in self._grads() for g in row]
            self._jacobian_tape = _compile(
                roots, [(k,) for k in range(len(roots))], len(roots)
            )
        return self._jacobian_tape

    def _compiled_hessian(self, j):
        """Tape of the (n_x, n_x) Hessian of output j; None if it is zero.

        Built from the upper triangle and mirrored, so it is exactly
        symmetric.
        """
        if j not in self._hessian_tapes:
            grad = self._grads()[j]
            if all(d.kind == "const" for d in grad):
                tape = None
            else:
                n = self.n_x
                roots, positions = [], []
                for i in range(n):
                    for k in range(i, n):
                        roots.append(diff(grad[i], k))
                        positions.append(
                            (i * n + k,) if i == k else (i * n + k, k * n + i)
                        )
                tape = _compile(roots, positions, n * n)
            self._hessian_tapes[j] = tape
        return self._hessian_tapes[j]

    def _check_args(self, x, p):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_x,):
            raise ValueError(f"expected x of length {self.n_x}, got shape {x.shape}")
        if p is None:
            p = np.zeros(self.n_p)
        else:
            p = np.asarray(p, dtype=float)
        if p.shape != (self.n_p,):
            raise ValueError(f"expected p of length {self.n_p}, got shape {p.shape}")
        return x, p


def evaluate(fun, x, p=None):
    """Evaluate ``fun`` at (x, p); returns a vector of length ``fun.n_out``."""
    x, p = fun._check_args(x, p)
    return fun._compiled_outputs().run(x, p)


def gradient(fun, x, p=None):
    """Exact gradient of a scalar (single-output) function."""
    if fun.n_out != 1:
        raise ValueError("gradient requires a scalar function")
    x, p = fun._check_args(x, p)
    return fun._compiled_jacobian().run(x, p)


def jacobian(fun, x, p=None):
    """Exact Jacobian, one row per output; shape (n_out, n_x)."""
    x, p = fun._check_args(x, p)
    return fun._compiled_jacobian().run(x, p).reshape(fun.n_out, fun.n_x)


def _hessian_term(fun, j, x, p):
    tape = fun._compiled_hessian(j)
    if tape is None:
        return None
    return tape.run(x, p).reshape(fun.n_x, fun.n_x)


def lagrangian_hessian(f, g, h_active, x, p, kappa, mult_active):
    """Hessian of f + kappa.g + mult.h_active; exactly symmetric by mirroring.

    Terms are added in output order; outputs with a zero multiplier or a zero
    Hessian (affine rows) are skipped.  Box constraints are affine, so they
    contribute nothing and are not passed.
    """
    if f.n_out != 1:
        raise ValueError("objective must be scalar")
    kappa = np.asarray(kappa, dtype=float)
    mult_active = np.asarray(mult_active, dtype=float)
    if kappa.shape != (g.n_out,):
        raise ValueError("multiplier length does not match equality outputs")
    if mult_active.shape != (h_active.n_out,):
        raise ValueError("multiplier length does not match inequality outputs")
    x, p = f._check_args(x, p)
    H = _hessian_term(f, 0, x, p)
    if H is None:
        H = np.zeros((f.n_x, f.n_x))
    for fun, mult in ((g, kappa), (h_active, mult_active)):
        for j in range(fun.n_out):
            if mult[j] != 0.0:
                term = _hessian_term(fun, j, x, p)
                if term is not None:
                    H += mult[j] * term
    return H


# ---------------------------------------------------------------------------
# prefix s-expression form (JSON problem files)
# ---------------------------------------------------------------------------

_SEXPR_UNARY = set(UNARY_OPS)
_SEXPR_BINARY = set(BINARY_OPS)


def expr_from_sexpr(obj):
    """Build an Expression from the nested-list prefix form.

    Numbers are constants; ``["var", i]`` / ``["param", i]`` are leaves;
    operator forms are ``["add", a, b]``, ``["neg", a]``, etc.
    """
    if isinstance(obj, (int, float)):
        return const(obj)
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError(f"malformed expression: {obj!r}")
    head = obj[0]
    if head == "var":
        if len(obj) != 2:
            raise ValueError(f"malformed var node: {obj!r}")
        return var(int(obj[1]))
    if head == "param":
        if len(obj) != 2:
            raise ValueError(f"malformed param node: {obj!r}")
        return param(int(obj[1]))
    if head in _SEXPR_UNARY:
        if len(obj) != 2:
            raise ValueError(f"{head} takes one argument: {obj!r}")
        return _unary(head, expr_from_sexpr(obj[1]))
    if head in _SEXPR_BINARY:
        if len(obj) != 3:
            raise ValueError(f"{head} takes two arguments: {obj!r}")
        return _binary(head, expr_from_sexpr(obj[1]), expr_from_sexpr(obj[2]))
    raise ValueError(f"unknown operator {head!r}")
