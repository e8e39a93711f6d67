"""Expression graphs with exact symbolic differentiation, run as flat tapes.

Objective and constraint functions are built as immutable DAGs over decision
variables ``var(i)`` and parameters ``param(j)``.  Derivatives (gradients,
Jacobians, Lagrangian Hessians) are obtained by symbolic graph rewriting with
constant folding.  As in CasADi's SX machine, each operator is written once,
in the table ``_OPS``: its scalar value, its exactly rounded numpy ufunc and
domain, and its derivative rule.  Folding, differentiation and the
generated programs look it up there.

Evaluation does not walk the graphs.  Each root set of a ``VectorFunction``
(its outputs, its gradient graphs, or the Hessian of one output) is compiled
once into a ``_Tape``: the outputs on first use, the Jacobian and every
Hessian together on the first use of any derivative.  A tape holds the
nonconstant nodes in post-order, deduplicated by node identity, one register
each.  Roots that are constants are folded into a stored result array, so a
constant Jacobian or Hessian costs one copy per call; an output with
all-constant gradient graphs has a zero Hessian and no Hessian graphs at
all.  The tapes apply the same scalar functions in the same order as a
direct post-order walk of the graphs, so values, overflow to inf and
``DomainEvalError`` (naming the failing node) are exactly those of that
walk.  Tapes are read-only once built (their structural ``key`` and
programs, filled in on first use, are the same whoever fills them) and every
call allocates its own registers and result, so functions may be evaluated
from several threads.

The functions of one problem that differ only in their constants' values
share their derivation and compilation, as CasADi's ``Function.map``
evaluates one function over many instances.  A function's structure
(``VectorFunction._key``) is its graph with every node numbered by identity
and each constant reduced to its fold class (0, 1, 2 or other, what
``_binary``'s folding tests); ``share_structure`` links the functions of one
problem with equal structures to one ``_Structure``.  Its representative
alone is differentiated and compiled, while the constants its derivation
folds are recorded.  Every other function then replays those folds on its
own constants, all at once in the wavefront program of the folds' tape, and
takes the representative's tapes (instructions, loads, scatter and
programs) with its own ``init`` and ``base``: bit for bit the tapes it would
compile itself.  A function whose replayed folds meet another fold class
(``x**3.0`` derives ``square`` where ``x**2.5`` derives ``pow(x, 1.5)``) or
raise compiles its own.  Nothing outlives the problem's functions: once
both kinds of root set are compiled, they let go of their structure.  A
shared tape's nodes are the representative's, so on a DomainEvalError it
compiles the block's own tape and reruns the point on it, and the error
names the block's own node.

Tapes of equal ``key`` differ only in their constants, and run as one
generated Python program per key, as CasADi evaluates a function through
generated code rather than by walking its graph.  The programs are built on
first use and kept in a process-wide table of fixed size, so the problems
that one generator builds again and again generate each program once; the
table holds only code and index arrays derived from keys, and each call
takes the tape's constants as an argument.  A tape's scalar program is
straight-line code, a statement per instruction: ``add``, ``sub``, ``mul``,
``neg`` and ``square`` are written infix, exactly their ``_OPS`` functions
on Python floats, and the other operators call their ``_OPS`` function, so
domain checks and overflow are unchanged.  The instruction list itself is
run one instruction at a time only on the error path, to name the node
whose DomainEvalError the program raised.

A ``_LaneTape`` stacks the tapes of one root set of several blocks, whose
results have equal sizes, and runs them on all the blocks' points at once;
each lane's values and errors are those of its own tape.  It splits its
lanes once by tape key (tapes of one structure hold one key object, so it
is hashed once), and each part, the lanes whose tapes share a key, runs on
its own.  A run on a single lane of a part is its own ``_Tape.run``.  A run
on several calls the part's wavefront program: the instructions of one
dependency level and one operator form a batch that writes one contiguous
block of register rows, and the program is a statement per batch, one
ufunc call over all its instructions and lanes where the operator has one,
so a tape costs one call per (level, operator) pair rather than one per
instruction.  Where a lane leaves an operator's domain the program stops
and every lane reruns its own tape, which gives the failing lanes their
errors and the others the values the program would have given.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
from collections import namedtuple
from contextlib import contextmanager
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


# The folds made while a _Structure derives its representative's graphs.
# The derivative rules call _unary and _binary directly, so no list can be
# passed down to them; a context variable, set only inside _recording,
# keeps one derivation's folds apart from another thread's.
_FOLDS = contextvars.ContextVar("_FOLDS", default=None)


@contextmanager
def _recording():
    """Collect, as (operator, constant operands, result), every constant
    that ``_unary`` and ``_binary`` fold inside."""
    folds = []
    token = _FOLDS.set(folds)
    try:
        yield folds
    finally:
        _FOLDS.reset(token)


def _fold_class(v):
    """What ``_binary``'s folding tests see of a constant: 0, 1, 2 or other."""
    return 0 if v == 0.0 else 1 if v == 1.0 else 2 if v == 2.0 else 3


def _unary(op, a):
    if a.kind == "const":
        c = const(_OPS[op].fn(a.value))
        folds = _FOLDS.get()
        if folds is not None:
            folds.append((op, (a,), c))
        return c
    return Expression(op, args=(a,))


def _binary(op, a, b):
    if a.kind == "const":
        if b.kind == "const":
            c = const(_OPS[op].fn(a.value, b.value))
            folds = _FOLDS.get()
            if folds is not None:
                folds.append((op, (a, b), c))
            return c
        u, v = a.value, None
    elif b.kind == "const":
        u, v = None, b.value
    else:
        return Expression(op, args=(a, b))
    # identity folds keep derivative graphs small; u or v is the value of
    # the one constant operand (None == 0.0 is false)
    if op == "add":
        if u == 0.0:
            return b
        if v == 0.0:
            return a
    elif op == "sub":
        if v == 0.0:
            return a
        if u == 0.0:
            return _unary("neg", b)
    elif op == "mul":
        if u == 0.0 or v == 0.0:
            return _ZERO
        if u == 1.0:
            return b
        if v == 1.0:
            return a
    elif op == "div":
        if u == 0.0:
            return _ZERO
        if v == 1.0:
            return a
    elif op == "pow":
        if v == 1.0:
            return a
        if v == 0.0:
            return _ONE
        if v == 2.0:
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
# the operator table
# ---------------------------------------------------------------------------

def _exp(u):
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _log(u):
    if u <= 0.0:
        raise DomainEvalError(f"log of non-positive value {u!r}")
    return math.log(u)


def _sqrt(u):
    if u < 0.0:
        raise DomainEvalError(f"sqrt of negative value {u!r}")
    return math.sqrt(u)


def _sin(u):
    if math.isinf(u):
        raise DomainEvalError(f"sin of infinite value {u!r}")
    return math.sin(u)


def _cos(u):
    if math.isinf(u):
        raise DomainEvalError(f"cos of infinite value {u!r}")
    return math.cos(u)


def _square(u):
    return u * u


def _div(u, v):
    if v == 0.0:
        raise DomainEvalError("division by zero")
    return u / v


def _pow(u, v):
    try:
        return math.pow(u, v)
    except OverflowError:
        return math.inf
    except ValueError:
        raise DomainEvalError(f"pow({u!r}, {v!r}) is undefined over the reals") from None


def _d_pow(e, a, b, da, db):
    if b.kind == "const":
        c = _binary("sub", b, _ONE)
        return _binary("mul", _binary("mul", b, _binary("pow", a, c)), da)
    if a.kind == "const":
        return _binary("mul", _binary("mul", e, _unary("log", a)), db)
    # u^v with both varying: u^v * (v' log u + v u'/u)
    inner = _binary("add", _binary("mul", db, _unary("log", a)),
                    _binary("div", _binary("mul", b, da), a))
    return _binary("mul", e, inner)


# Per operator: ``fn``, its scalar function of one or two operands, which
# outside the domain raises DomainEvalError without a node (the tape running
# it attaches one); ``ufunc``, the numpy ufunc that rounds exactly as fn does,
# or None (the transcendentals are left to libm, lane by lane, so every lane's
# value is bit for bit that of _Tape.run); ``outside``, the mask of the
# ufunc's operands outside the domain, or None; and ``d(e, *args,
# *arg_derivatives)``, the derivative graph of a node e of the operator.
_Op = namedtuple("_Op", "fn ufunc outside d")
_OPS = {
    "neg": _Op(operator.neg, np.negative, None, lambda e, a, da: _unary("neg", da)),
    "exp": _Op(_exp, None, None, lambda e, a, da: _binary("mul", e, da)),
    "log": _Op(_log, None, None, lambda e, a, da: _binary("div", da, a)),
    "sin": _Op(_sin, None, None,
               lambda e, a, da: _binary("mul", _unary("cos", a), da)),
    "cos": _Op(_cos, None, None,
               lambda e, a, da: _unary("neg", _binary("mul", _unary("sin", a), da))),
    "sqrt": _Op(_sqrt, np.sqrt, lambda u: u < 0.0,
                lambda e, a, da: _binary("div", da, _binary("mul", const(2.0), e))),
    "square": _Op(_square, np.square, None,
                  lambda e, a, da: _binary("mul", _binary("mul", const(2.0), a), da)),
    "add": _Op(operator.add, np.add, None,
               lambda e, a, b, da, db: _binary("add", da, db)),
    "sub": _Op(operator.sub, np.subtract, None,
               lambda e, a, b, da, db: _binary("sub", da, db)),
    "mul": _Op(operator.mul, np.multiply, None,
               lambda e, a, b, da, db: _binary(
                   "add", _binary("mul", da, b), _binary("mul", a, db))),
    "div": _Op(_div, np.divide, lambda u, v: v == 0.0,
               lambda e, a, b, da, db: _binary(
                   "sub",
                   _binary("div", da, b),
                   _binary("div", _binary("mul", a, db), _unary("square", b)),
               )),
    "pow": _Op(_pow, None, None, _d_pow),
}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# the globals of the generated programs: each operator's scalar function,
# ufunc and domain mask (the first three fields of its _OPS entry) by name
_GLOBALS = {f"{op}_{part}": v for op, entry in _OPS.items()
            for part, v in zip(("fn", "uf", "out"), entry)}
_GLOBALS["reshape"] = np.reshape

# operators written infix in the scalar programs: exactly their _OPS function
# on Python floats
_INFIX = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "neg": "-{}",
          "square": "{0} * {0}"}

# the most programs of each kind the process keeps; a program dropped is
# generated again by the next instruction list of its key to run
_PROGRAMS = 256


def _generated(source, names):
    """The function ``run`` that ``source`` defines, with ``_GLOBALS`` and
    ``names``, index arrays derived from a key, as its globals: never a
    problem's constants or nodes."""
    namespace = dict(_GLOBALS, **names)
    exec(compile(source, "<tape program>", "exec"), namespace)
    return namespace["run"]


@functools.lru_cache(maxsize=_PROGRAMS)
def _scalar_program(key):
    """The straight-line program of tapes of ``key``: ``run(init, xs, ps)``,
    the values of their nonconstant roots in ``out_reg`` order.

    Register r is the local ``r<r>``: a constant is read from ``init``, a
    load from the lists ``xs`` and ``ps``, and an instruction is one
    statement, infix where ``_INFIX`` has its operator and else a call of
    its ``_OPS`` function, so values, overflow and errors are the
    interpreter's.
    """
    code, x_loads, p_loads, _, out_reg, n_reg, _ = key
    written = {r for r, _ in x_loads} | {r for r, _ in p_loads} | {d for _, d, _, _ in code}
    lines = ["def run(init, xs, ps):"]
    lines += [f" r{r} = init[{r}]" for r in range(n_reg) if r not in written]
    lines += [f" r{r} = xs[{i}]" for r, i in x_loads]
    lines += [f" r{r} = ps[{i}]" for r, i in p_loads]
    for kind, dst, a, b in code:
        args = (f"r{a}",) if b < 0 else (f"r{a}", f"r{b}")
        form = _INFIX.get(kind)
        value = form.format(*args) if form else f"{kind}_fn({', '.join(args)})"
        lines.append(f" r{dst} = {value}")
    lines.append(f" return [{', '.join(f'r{r}' for r in out_reg)}]")
    return _generated("\n".join(lines), {})


class _Programs:
    """What every tape of one instruction list shares: its ``key`` and its
    generated programs, each looked up by key on first use.

    ``_compile`` makes one per instruction list and ``_Tape.shared`` hands
    it on.  ``scalar`` is ``_scalar_program(key)`` and ``waves``
    ``_wavefronts(key)``.  Threads that fill one at once store equal
    values, and either may be kept.
    """

    __slots__ = ("key", "scalar", "waves")

    def __init__(self):
        self.key = self.scalar = self.waves = None


class _Tape:
    """One compiled root set: a flat instruction list over numbered registers.

    ``base`` is the flat result with every constant root already in place;
    ``init`` holds the register file's starting values (constant operands
    filled in, every other register 0.0).  ``x_loads``/``p_loads`` copy x
    and p entries into their registers, ``code`` runs the operator nodes in
    the walk order of the graph, and ``out_pos``/``out_reg`` scatter the
    nonconstant roots into the result.  An instruction ``(fn, dst, a, b,
    node)`` holds its operator's scalar function from ``_OPS`` (b < 0 for a
    unary one) and its node.

    ``run`` calls the straight-line program generated for the tape's
    ``key`` (``_scalar_program``, through ``programs``) on ``init`` and the
    point, and scatters its values into a copy of ``base``, so every call
    gets fresh registers and a fresh result.  Where the program raises a
    DomainEvalError, ``_interpret`` runs the instructions one by one to
    attach the failing node; it is the error path only.

    A tape ``shared`` from another function's of one ``_Structure`` holds
    that tape's instructions, loads, scatter and programs, and its own
    function's constants.  Its nodes are the other function's, so ``own``
    holds its function's outputs, dimensions and root set: on the first
    error the function's own tape is compiled from them (and kept), and it
    reruns the point and raises the error naming the block's own node.
    ``own`` is None for a tape compiled from its function's graphs.
    """

    __slots__ = ("base", "init", "x_loads", "p_loads", "code", "out_pos",
                 "out_reg", "own", "programs")

    def __init__(self, init, x_loads, p_loads, code, base, out_pos, out_reg,
                 own=None, programs=None):
        self.init, self.x_loads, self.p_loads, self.code = init, x_loads, p_loads, code
        self.base, self.out_pos, self.out_reg, self.own = base, out_pos, out_reg, own
        self.programs = _Programs() if programs is None else programs

    @property
    def key(self):
        """The tape's structure, computed once: everything but its constants.

        Two tapes with equal keys run the same instructions on the same
        registers, load the same x and p entries and scatter into the same
        result positions; they differ at most in the values of ``init`` and
        ``base``.
        """
        programs = self.programs
        if programs.key is None:
            programs.key = (
                tuple((node.kind, dst, a, b) for _, dst, a, b, node in self.code),
                tuple(self.x_loads), tuple(self.p_loads),
                tuple(self.out_pos.tolist()), tuple(self.out_reg),
                len(self.init), self.base.size,
            )
        return programs.key

    def run(self, x, p):
        out = self.base.copy()
        if not self.out_reg:
            return out
        # Python floats, as the constants are: arithmetic on them overflows
        # to inf without a numpy warning, and errors print them plainly
        xs, ps = x.tolist(), p.tolist()
        program = self.programs.scalar
        if program is None:
            program = self.programs.scalar = _scalar_program(self.key)
        try:
            out[self.out_pos] = program(self.init, xs, ps)
        except DomainEvalError:
            if self.own is None:
                self._interpret(xs, ps)  # raises the error, naming its node
                raise
            if type(self.own) is tuple:
                outputs, n_x, n_p, which = self.own
                self.own = _compile_sets(VectorFunction(outputs, n_x, n_p), (which,))[0]
            return self.own.run(x, p)
        return out

    def _interpret(self, xs, ps):
        """Run the instructions one at a time on the lists ``xs``, ``ps``,
        and attach its node to the DomainEvalError one of them raises."""
        reg = self.init.copy()
        for r, i in self.x_loads:
            reg[r] = xs[i]
        for r, i in self.p_loads:
            reg[r] = ps[i]
        for fn, dst, a, b, node in self.code:
            try:
                reg[dst] = fn(reg[a]) if b < 0 else fn(reg[a], reg[b])
            except DomainEvalError as err:
                err.node = node
                raise

    def shared(self, init, base, own):
        """This tape with another function's constants, ``init`` and
        ``base``; ``own`` is that function's (outputs, n_x, n_p) and the
        root set."""
        return _Tape(init, self.x_loads, self.p_loads, self.code, base,
                     self.out_pos, self.out_reg, own, self.programs)


class _LaneTape:
    """The tapes of one root set of one or more blocks, run on their lanes.

    Built from tapes whose results have equal sizes; lane k is the block of
    ``tapes[k]``, and ``base`` (n_lanes, size) holds each lane's constant
    result.  When the tapes' keys differ, ``parts`` splits the lanes by key,
    once: one ``(at, part)`` per key, ``part`` the lane tape of that key's
    tapes in lane order and ``at`` each lane's index in it (-1 for a lane
    of another key).  Tapes of one key, or of one lane, leave ``parts``
    None and run as one part.  A run on one lane of a part is that lane's
    ``_Tape.run``.  A run on several calls the wavefront program of the
    part's key (``_wavefronts``) on registers that are rows over the lanes,
    starting from ``waves.init``, the rows of the lanes' constants, built
    on first use (a group that only ever runs one lane at a time never
    builds them).
    """

    def __init__(self, tapes):
        self.tapes = tapes
        self.base = np.array([t.base for t in tapes])
        self.constant = not tapes[0].out_reg
        self._iota = np.arange(len(tapes), dtype=np.intp).tobytes()
        self.parts = None
        if len(tapes) > 1:
            # tapes shared from one function's hold its key object: each
            # key object is hashed and compared once, not once per tape
            by_id = {}
            for k, t in enumerate(tapes):
                by_id.setdefault(id(t.key), []).append(k)
            by_key = {}
            for idx in by_id.values():
                by_key.setdefault(tapes[idx[0]].key, []).extend(idx)
            if len(by_key) > 1:
                self.parts = []
                for idx in by_key.values():
                    idx.sort()
                    at = np.full(len(tapes), -1, dtype=np.intp)
                    at[idx] = np.arange(len(idx))
                    self.parts.append((at, _LaneTape([tapes[k] for k in idx])))

    @property
    def waves(self):
        """The part's ``_Wavefronts``, built once; whoever builds it builds
        the same."""
        try:
            return self._waves
        except AttributeError:
            first = self.tapes[0]
            schedule = first.programs.waves
            if schedule is None:
                schedule = first.programs.waves = _wavefronts(first.key)
            values = np.hstack([np.array([t.init for t in self.tapes])[:, schedule.consts],
                                self.base[:, schedule.roots]])
            init = np.zeros((schedule.n_rows, len(self.tapes)))
            init[schedule.consts_at:schedule.consts_at + values.shape[1]] = values.T
            self._waves = _Wavefronts(init, schedule.batches, schedule.run)
            return self._waves

    def run(self, X, P, lanes, errors):
        """Rows of results for the ``lanes``, whose x and p are rows of X, P.

        Each part runs on its rows: a single lane runs its own tape's
        ``_Tape.run``, several run ``_run_lanes``.  A lane that leaves an
        operator's domain has its first DomainEvalError put in ``errors``
        under its row (an earlier error of that row is kept); the rest of
        its row is not meaningful.
        """
        if self.parts is not None:
            out = np.empty((len(lanes), self.base.shape[1]))
            for at, part in self.parts:
                pos = at[lanes]
                rows = np.flatnonzero(pos >= 0)
                if rows.size:
                    out[rows] = part.run_rows(X, P, pos, rows, errors)
            return out
        if len(lanes) != 1:
            return self._run_lanes(X, P, lanes, errors)
        try:
            return self.tapes[lanes[0]].run(X[0], P[0])[None]
        except DomainEvalError as err:
            errors.setdefault(0, err)
            return np.full((1, self.base.shape[1]), np.nan)

    def run_rows(self, X, P, lanes, rows, errors):
        """``run`` on the ``rows`` of X, P and ``lanes`` only, each error put
        in ``errors`` under its row of those (an earlier error is kept)."""
        errs = {}
        out = self.run(X[rows], P[rows], lanes[rows], errs)
        for r, err in errs.items():
            errors.setdefault(rows[r], err)
        return out

    def _run_lanes(self, X, P, lanes, errors):
        """``run`` on several lanes: the wavefront program, once.

        Every row holds, in each lane, the value of its registers in the
        lane's own tape, so a lane's results are those of its ``_Tape.run``.
        Where an operand of some lane leaves its operator's domain the
        program stops, and every lane reruns its own ``_Tape.run``: the
        lanes that fail there take its error, the others its values.
        """
        every = len(lanes) == len(self.base) and lanes.tobytes() == self._iota
        if self.constant:
            return self.base.copy() if every else self.base[lanes]
        waves = self.waves
        R = waves.init.copy() if every else waves.init.take(lanes, axis=1)
        try:
            out = waves.run(R, X, P)
        except DomainEvalError:
            out = None
        if out is not None:
            return out
        out = np.full((len(lanes), self.base.shape[1]), np.nan)
        for k, i in enumerate(lanes.tolist()):
            try:
                out[k] = self.tapes[i].run(X[k], P[k])
            except DomainEvalError as err:
                errors.setdefault(k, err)
        return out


# ``init`` (n_rows, n_lanes), one lane tape's starting registers, and its
# key's ``_Schedule`` ``batches`` and ``run``
_Wavefronts = namedtuple("_Wavefronts", "init batches run")
_Schedule = namedtuple("_Schedule", "n_rows consts_at consts roots batches run")


@functools.lru_cache(maxsize=_PROGRAMS)
def _wavefronts(key):
    """The ``_Schedule`` that runs tapes of ``key`` on several lanes at once.

    An instruction's level is one above its operands' highest (loads and
    constants are level 0); the instructions of one level and one operator
    form a batch, and none of them reads another's result.  The rows of the
    registers (n_rows, n_lanes) are, in order: one per x entry loaded, then
    one per p entry loaded (registers loading the same entry share its
    row); from ``consts_at``, one per constant register, the registers
    ``consts`` in order, then one per constant root, the result positions
    ``roots``; then the destinations of each batch in (level, operator)
    order, so that a batch writes one contiguous block of rows, up to
    ``n_rows``.  The layout depends on the key alone, and a lane tape fills
    the constant rows from its own tapes.  A batch is ``(fn, ufunc, outside,
    dst, a, b)``: its operator's ``_OPS`` entry, its destination rows (a
    slice, or one row for a batch of one) and its operand rows (a slice
    where they are contiguous, else an array; ``b`` is None for a unary
    operator).

    ``run(R, X, P)`` is the schedule as one generated function, a statement
    per batch with its rows fixed: it loads the rows of X and P (lanes
    first) into R, runs each batch, and returns the lanes' results, lanes
    first.  A batch whose operator has a ufunc is one call over its rows
    and lanes; one with a domain mask first returns None if any entry is
    outside it.  The other operators run their scalar function on every
    entry, so libm rounds each lane as its own tape does, and a
    DomainEvalError leaves the function.
    """
    code, x_loads, p_loads, out_pos, out_reg, n_reg, size = key
    level = [0] * n_reg
    batches = {}  # (level, operator) -> [(dst, a, b)]
    for kind, dst, a, b in code:
        lv = level[dst] = 1 + max(level[a], level[b] if b >= 0 else 0)
        batches.setdefault((lv, kind), []).append((dst, a, b))
    x_idx = sorted({i for _, i in x_loads})
    p_idx = sorted({i for _, i in p_loads})
    new = {}  # register -> row
    row = {i: k for k, i in enumerate(x_idx)}
    new.update((r, row[i]) for r, i in x_loads)
    row = {i: len(x_idx) + k for k, i in enumerate(p_idx)}
    new.update((r, row[i]) for r, i in p_loads)
    written = set(new).union(dst for _, dst, _, _ in code)
    consts = [r for r in range(n_reg) if r not in written]
    consts_at = len(x_idx) + len(p_idx)
    new.update((r, consts_at + k) for k, r in enumerate(consts))
    roots = sorted(set(range(size)).difference(out_pos))
    roots_at = consts_at + len(consts)
    start = roots_at + len(roots)
    names = {}  # global of the program -> index array

    def take(M, idx):
        """The source of the rows ``idx`` of M: an int, a slice or an array."""
        if type(idx) is int:
            return f"{M}[{idx}]"
        if type(idx) is slice:
            return f"{M}[{idx.start}:{idx.stop}]"
        name = f"rows{len(names)}"
        names[name] = idx
        return f"{M}.take({name}, 0)"

    lines = ["def run(R, X, P):"]
    for loaded, at, M in ((x_idx, 0, "X.T"), (p_idx, len(x_idx), "P.T")):
        if loaded:
            lines.append(f" R[{at}:{at + len(loaded)}] = {take(M, _rows(loaded))}")
    program = []
    for lv, kind in sorted(batches):
        ins = batches[lv, kind]
        k = len(ins)
        a = [new[a] for _, a, _ in ins]
        b = None if ins[0][2] < 0 else [new[b] for _, _, b in ins]
        if k == 1:
            dst, a, b = start, a[0], None if b is None else b[0]
        else:
            dst, a, b = slice(start, start + k), _rows(a), None if b is None else _rows(b)
        new.update((d, start + j) for j, (d, _, _) in enumerate(ins))
        start += k
        op = _OPS[kind]
        program.append((op.fn, op.ufunc, op.outside, dst, a, b))
        args = [take("R", u) for u in (a, b) if u is not None]
        if op.ufunc is None:
            flat = ".tolist()" if k == 1 else ".ravel().tolist()"
            vals = f"list(map({kind}_fn, {', '.join(u + flat for u in args)}))"
            lines.append(f" {take('R', dst)} = "
                         + (vals if k == 1 else f"reshape({vals}, ({k}, -1))"))
            continue
        if op.outside is not None:
            operands = ", ".join(f"U{j}" for j in range(len(args)))
            lines += [f" {operands} = {', '.join(args)}",
                      f" if {kind}_out({operands}).any():", "  return None"]
            args = [operands]
        lines.append(f" {kind}_uf({', '.join(args)}, out={take('R', dst)})")
    src = np.empty(size, dtype=np.intp)
    src[list(out_pos)] = [new[r] for r in out_reg]
    src[roots] = np.arange(roots_at, roots_at + len(roots))
    names["src"] = src
    lines.append(" return R.take(src, 0).T.copy()")
    return _Schedule(start, consts_at, np.array(consts, dtype=np.intp),
                     np.array(roots, dtype=np.intp), tuple(program),
                     _generated("\n".join(lines), names))


def _rows(idx):
    """A list of row indices as a slice where they are a contiguous run,
    else as an array."""
    if idx and idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx, dtype=np.intp)


_READY = object()  # stack marker in _compile


def _compile(roots, positions, size, consts=None):
    """Compile ``roots`` into a tape whose result has ``size`` entries.

    Root k fills the flat result indices ``positions[k]``.  Nodes are
    numbered in the post-order of one explicit-stack walk over the roots in
    turn (the last argument of a node is visited first), deduplicated by
    identity: a node shared between roots runs once, and when several
    operands are invalid the DomainEvalError names the first in this order.
    Constant roots go straight into ``base``; constant operands get a
    register but no instruction.  Given ``consts``, a pair of lists, each
    constant's (register, node) goes into the first and each constant
    root's (positions, node) into the second.
    """
    init, x_loads, p_loads, code = [], [], [], []
    const_pos, const_val, out_pos, out_reg = [], [], [], []
    regs = {}  # id(node) -> register
    for root, pos in zip(roots, positions):
        if root.kind == "const":
            const_pos.extend(pos)
            const_val.extend([root.value] * len(pos))
            if consts is not None:
                consts[1].append((pos, root))
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
                if consts is not None:
                    consts[0].append((r, node))
                continue
            init.append(0.0)
            if kind == "var":
                x_loads.append((r, node.index))
            elif kind == "param":
                p_loads.append((r, node.index))
            elif len(node.args) == 1:
                code.append((_OPS[kind].fn, r, regs[id(node.args[0])], -1, node))
            else:
                a, b = node.args
                code.append((_OPS[kind].fn, r, regs[id(a)], regs[id(b)], node))
        out_pos.extend(pos)
        out_reg.extend([regs[id(root)]] * len(pos))
    base = np.zeros(size)
    base[const_pos] = const_val
    return _Tape(init, x_loads, p_loads, code, base, np.array(out_pos, dtype=np.intp),
                 out_reg)


# the tape of every root set without roots: the outputs and the Jacobian of
# a function with no outputs; its key is computed once, for all of them
_EMPTY_TAPE = _compile((), (), 0)


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
    args = e.args
    if len(args) == 2:
        a, b = args
        d = _OPS[e.kind].d(e, a, b, _diff_memo(a, i, memo), _diff_memo(b, i, memo))
    elif args:
        d = _OPS[e.kind].d(e, args[0], _diff_memo(args[0], i, memo))
    else:
        d = _ONE if e.kind == "var" and e.index == i else _ZERO
    memo[key] = d
    return d


def _root_set(fun, grads, which):
    """(roots, positions, size) of one of ``fun``'s root sets, to compile.

    ``which`` is "out", the outputs; "jac", the gradient graphs ``grads``
    row-major (n_out, n_x), so a scalar function's gradient is its one row;
    or an output's index, the upper triangle of its Hessian, mirrored so it
    is exactly symmetric, or None where the output is affine.
    """
    if which == "out":
        return fun.outputs, [(k,) for k in range(fun.n_out)], fun.n_out
    if which == "jac":
        roots = [g for row in grads for g in row]
        return roots, [(k,) for k in range(len(roots))], len(roots)
    grad = grads[which]
    if all(d.kind == "const" for d in grad):
        return None
    n = fun.n_x
    roots, positions = [], []
    for i in range(n):
        for k in range(i, n):
            roots.append(diff(grad[i], k))
            positions.append((i * n + k,) if i == k else (i * n + k, k * n + i))
    return roots, positions, n * n


def _compile_sets(fun, sets, slots=None):
    """The tapes of ``fun``'s root ``sets``, derived from its own graphs;
    given ``slots``, a list, each tape's constants (``_compile``'s
    ``consts``) are appended to it."""
    grads = () if sets == ("out",) else tuple(
        tuple(diff(o, i) for i in range(fun.n_x)) for o in fun.outputs
    )
    tapes = []
    for which in sets:
        roots = _root_set(fun, grads, which)
        consts = None if slots is None else ([], [])
        tapes.append(None if roots is None else _compile(*roots, consts))
        if slots is not None:
            slots.append(consts)
    return tapes


# ---------------------------------------------------------------------------
# shared structures
# ---------------------------------------------------------------------------

# How the constants of one structure's tapes follow from each function's
# own leaf constants ``_consts``.  ``tape`` runs the folds of the derivation
# that read those constants, in the order they were made, on them as its x
# (its constant operands are the ones all functions of the structure have
# alike: those the derivative rules write, and their folds), and returns
# each fold's value; ``classes`` holds the fold classes the representative's
# folds met.  A function's values are its leaf constants, then its fold
# values.  Per tape of the structure, ``slots`` holds ``(regs, reg_src, pos,
# pos_src)``: register ``regs[k]`` of ``init`` takes value ``reg_src[k]``
# and result position ``pos[k]`` of ``base`` value ``pos_src[k]``; the
# constants all functions have alike stay as the representative's tape
# holds them.
_Constants = namedtuple("_Constants", "tape classes slots")
_Fold = namedtuple("_Fold", "kind")  # a fold's node in a _Constants tape


def _constants(consts, folds, slots):
    """The ``_Constants`` of tapes compiled with ``slots`` from graphs
    whose leaf constants are ``consts`` and whose derivation made
    ``folds``."""
    n = len(consts)
    at = {id(c): k for k, c in enumerate(consts)}  # constant -> value index
    reg = {}  # value index -> register: loaded, or a fold's
    alike = {}  # id of a constant alike in every function -> register
    init, x_loads, code, classes = [], [], [], []
    for op, args, c in folds:
        if id(args[0]) not in at and id(args[-1]) not in at:
            continue  # alike in every function
        rs = []
        for a in args:
            k = at.get(id(a))
            if k is None:
                r = alike.get(id(a))
                if r is None:
                    r = alike[id(a)] = len(init)
                    init.append(a.value)
            else:
                r = reg.get(k)
                if r is None:
                    r = reg[k] = len(init)
                    init.append(0.0)
                    x_loads.append((r, k))
            rs.append(r)
        k = at[id(c)] = n + len(code)
        r = reg[k] = len(init)
        init.append(0.0)
        code.append((_OPS[op].fn, r, rs[0], rs[1] if len(rs) > 1 else -1, _Fold(op)))
        classes.append(_fold_class(c.value))
    tape = _Tape(init, x_loads, [], code, np.zeros(len(code)),
                 np.arange(len(code), dtype=np.intp), [dst for _, dst, _, _, _ in code])
    out = []
    for regs, roots in slots:
        regs = [(r, at[id(n)]) for r, n in regs if id(n) in at]
        roots = [(k, at[id(n)]) for pos, n in roots if id(n) in at for k in pos]
        out.append(([r for r, _ in regs], [k for _, k in regs],
                    [k for k, _ in roots], [k for _, k in roots]))
    return _Constants(tape, np.array(classes, dtype=int), out)


def _replay(program, consts):
    """Every function's values of ``program``, a row per function, from
    ``consts``, the rows of their leaf constants; and the mask of the
    functions whose folds all go as the representative's.  The folds run
    as the wavefront program of the tape's key, a lane per function even
    for one, where there are any; a function whose fold raises or meets
    another fold class derives another graph.
    """
    m = len(consts)
    if not program.tape.code:
        return consts, np.ones(m, dtype=bool)
    errors = {}
    with np.errstate(all="ignore"):
        made = _LaneTape([program.tape] * m)._run_lanes(
            consts, np.zeros((m, 0)), np.arange(m), errors
        )
    cls = np.select([made == 0.0, made == 1.0, made == 2.0], [0, 1, 2], 3)
    ok = (cls == program.classes).all(axis=1)
    ok[list(errors)] = False
    return np.hstack([consts, made]), ok


class _Structure:
    """The functions of one problem with one structure (``_key``).

    ``funs[0]``, the representative, is derived and compiled, its folds
    recorded (``_recording``), once for its outputs and once for all its
    derivative tapes.  The other functions' constants are replayed from
    their own (``_replay``), all at once, and each takes the
    representative's tapes with its constants (``_Tape.shared``); a
    function whose replay finds a fold that goes otherwise, or each of them
    where the representative's derivation raised, compiles its own.  The
    graphs derived here are the representative's own, so its tapes are
    those it would compile itself.  ``fill`` puts every function's tapes
    into its caches, and once both sets are filled the functions let go of
    the structure.  Threads that fill at once build equal tapes, and either
    may be kept; a fill counted twice or lost only lets a set compile
    unshared or keeps the structure longer.
    """

    __slots__ = ("funs", "_filled")

    def __init__(self, funs):
        self.funs = funs
        self._filled = 0

    def fill(self, sets):
        """Fill every function's cache of the root ``sets``; False, and the
        functions let go of the structure, where the representative's
        derivation or the replay raised."""
        every = self._tapes(sets)
        self._filled += 1
        if every is None or self._filled == 2:
            for fun in self.funs:
                fun._structure = None
        if every is None:
            return False
        for fun, tapes in zip(self.funs, every):
            fun._keep(sets, tapes)
        return True

    def _tapes(self, sets):
        """Every function's tapes of the root ``sets``, or None."""
        rep, funs = self.funs[0], self.funs[1:]
        slots = []
        try:
            with _recording() as folds:
                tapes = _compile_sets(rep, sets, slots)
            program = _constants(rep._consts, folds, slots)
            values, ok = _replay(program, np.array(
                [[c.value for c in f._consts] for f in funs], dtype=float))
        except ArithmeticError:
            # a fold raised: each function derives its own, and raises only
            # its own error
            return None
        values = values.T
        columns = []  # per root set, every other function's tape
        for t, (regs, reg_src, pos, pos_src), which in zip(tapes, program.slots, sets):
            if t is None:
                columns.append([None] * len(funs))
                continue
            bases = np.tile(t.base, (len(funs), 1))
            bases[:, pos] = values[pos_src].T
            column = []
            for f, own, base in zip(funs, values[reg_src].T.tolist(), bases):
                init = t.init.copy()
                for r, v in zip(regs, own):
                    init[r] = v
                column.append(t.shared(init, base, (f.outputs, f.n_x, f.n_p, which)))
            columns.append(column)
        return [tapes] + [
            row if good else _compile_sets(f, sets)
            for f, row, good in zip(funs, zip(*columns), ok)
        ]


def share_structure(functions):
    """Link the ``functions`` of one problem that share a structure.

    Functions with outputs, no structure yet and nothing compiled are
    grouped by ``_key``; each group of two or more shares one
    ``_Structure``, whose representative is its first function.  A
    function is linked at most once, so a structure lives as long as the
    functions it serves.
    """
    groups = {}
    for fun in functions:
        if (fun.outputs and fun._structure is None and fun._output_tape is None
                and fun._derived is None):
            groups.setdefault(fun._key, {})[id(fun)] = fun
    for group in groups.values():
        if len(group) > 1:
            shared = _Structure(list(group.values()))
            for fun in shared.funs:
                fun._structure = shared


# ---------------------------------------------------------------------------
# vector functions
# ---------------------------------------------------------------------------

class VectorFunction:
    """A list of scalar expression outputs over (x, p) of fixed dimensions.

    Each root set is compiled into a ``_Tape`` and cached: the outputs
    (``evaluate``) on their first use, and on the first use of any
    derivative, together, the gradient graphs of all outputs (``gradient``,
    ``jacobian``) and, per output, the upper triangle of its Hessian
    (``lagrangian_hessian``).  Constant roots are folded into the
    tape's stored result, so a function whose derivatives are constant
    costs one array copy per call.  An output whose gradient graphs are all
    constant (an affine row) is marked as having a zero Hessian and its
    Hessian graphs are never built.  Of a Hessian's graphs only the nodes
    its tape runs are kept; the gradient graphs stay, as the Hessians
    derive from them.  A function with no outputs (an absent g or h) compiles
    nothing: its outputs and Jacobian are the one shared empty tape, whose
    runs return a fresh empty array each.

    ``_key`` is the function's structure: its graph with each node numbered
    by identity, the constants' values taken out and only their fold
    classes kept (and whether one is the shared ``_ZERO`` or ``_ONE``, which
    derivative rules also write), and ``_consts`` its constant nodes in that
    numbering.  The functions of one problem with equal keys share one
    ``_Structure`` (``share_structure``) until both their root sets are
    compiled: the representative alone is differentiated and compiled, and
    every other function's tapes are the representative's with its own
    constants.  Nothing is shared beyond the problem's functions, and a
    function compiles from its own graphs where its derived constants fold
    otherwise, and, on an error, to name the block's own node.

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
        number = {}  # id(node) -> its number in the walk
        nodes = []
        stack = list(outputs)
        while stack:
            node = stack.pop()
            if id(node) in number:
                continue
            number[id(node)] = len(nodes)
            nodes.append(node)
            stack.extend(node.args)
        key, consts = [], []
        for node in nodes:
            kind = node.kind
            key.append(kind)
            if node.args:
                key.append(len(node.args))
                key.extend([number[id(a)] for a in node.args])
            elif kind == "const":
                consts.append(node)
                # the two shared constants are also derivative leaves
                key.append("zero" if node is _ZERO else "one" if node is _ONE
                           else _fold_class(node.value))
            else:
                key.append(node.index)
                if kind == "var":
                    max_var = max(max_var, node.index)
                elif kind == "param":
                    max_param = max(max_param, node.index)
        if max_var >= self.n_x:
            raise ValueError(
                f"variable index {max_var} out of range for n_x={self.n_x}"
            )
        if max_param >= self.n_p:
            raise ValueError(
                f"parameter index {max_param} out of range for n_p={self.n_p}"
            )
        self._key = (self.n_x, self.n_p, tuple(key),
                     tuple(number[id(o)] for o in outputs))
        self._consts = consts
        self._structure = None
        # a function without outputs shares the one empty tape
        self._output_tape = None if outputs else _EMPTY_TAPE
        self._derived = None if outputs else (_EMPTY_TAPE, ())

    @property
    def n_out(self):
        return len(self.outputs)

    def __repr__(self):
        return f"VectorFunction(n_out={self.n_out}, n_x={self.n_x}, n_p={self.n_p})"

    # -- cache builders -----------------------------------------------------
    def _fill(self, sets):
        """Compile the root ``sets``: this function's, or, if it shares a
        structure, every function's of it."""
        shared = self._structure
        if shared is None or not shared.fill(sets):
            self._keep(sets, _compile_sets(self, sets))

    def _keep(self, sets, tapes):
        if sets == ("out",):
            self._output_tape = tapes[0]
        else:
            self._derived = (tapes[0], tuple(tapes[1:]))

    def _compiled_outputs(self):
        if self._output_tape is None:
            self._fill(("out",))
        return self._output_tape

    def _derivatives(self):
        """(Jacobian tape, the Hessian tape of each output), built together."""
        if self._derived is None:
            self._fill(("jac",) + tuple(range(self.n_out)))
        return self._derived

    def _compiled_jacobian(self):
        return self._derivatives()[0]

    def _compiled_hessian(self, j):
        """Tape of the (n_x, n_x) Hessian of output j; None if it is zero."""
        return self._derivatives()[1][j]

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

    Numbers are constants; ``["var", i]`` / ``["param", i]`` are leaves,
    with i an integer; operator forms are ``["add", a, b]``, ``["neg", a]``,
    etc.  Booleans are neither numbers nor indices.
    """
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return const(obj)
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError(f"malformed expression: {obj!r}")
    head = obj[0]
    if head in ("var", "param"):
        if len(obj) != 2 or type(obj[1]) is not int:
            raise ValueError(f"malformed {head} node: {obj!r}")
        return (var if head == "var" else param)(obj[1])
    if head in _SEXPR_UNARY:
        if len(obj) != 2:
            raise ValueError(f"{head} takes one argument: {obj!r}")
        return _unary(head, expr_from_sexpr(obj[1]))
    if head in _SEXPR_BINARY:
        if len(obj) != 3:
            raise ValueError(f"{head} takes two arguments: {obj!r}")
        return _binary(head, expr_from_sexpr(obj[1]), expr_from_sexpr(obj[2]))
    raise ValueError(f"unknown operator {head!r}")
