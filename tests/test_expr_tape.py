"""Compiled tapes against a reference walker: equal values, errors, no aliasing.

The reference below evaluates the symbolic derivative graphs directly, with a
post-order walk and an id()-keyed memo, and its own per-operator functions,
written as name-dispatched if-chains independently of the operator table the
tapes run.  Every entry point must return arrays equal to it, raise
DomainEvalError at the same inputs naming the same node, and hand out a fresh
array on every call.
"""

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from aladin import expr as ex
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin import driver, local
from aladin.expr import Expression, VectorFunction, param, var
from aladin.local import group_blocks
from aladin.problem import SeparableProblem, SolverOptions, Subproblem


# -- reference ---------------------------------------------------------------

def _apply_unary(op, u, node):
    try:
        if op == "neg":
            return -u
        if op == "exp":
            return math.exp(u)
        if op == "log":
            if u <= 0.0:
                raise ex.DomainEvalError(f"log of non-positive value {u!r}", node)
            return math.log(u)
        if op in ("sin", "cos"):
            if math.isinf(u):
                raise ex.DomainEvalError(f"{op} of infinite value {u!r}", node)
            return math.sin(u) if op == "sin" else math.cos(u)
        if op == "sqrt":
            if u < 0.0:
                raise ex.DomainEvalError(f"sqrt of negative value {u!r}", node)
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
                raise ex.DomainEvalError("division by zero", node)
            return u / v
        if op == "pow":
            try:
                return math.pow(u, v)
            except ValueError:
                raise ex.DomainEvalError(
                    f"pow({u!r}, {v!r}) is undefined over the reals", node
                ) from None
    except OverflowError:
        return math.inf
    raise ValueError(f"unknown binary op {op!r}")


def _walk(roots, x, p, memo):
    """Post-order evaluation of several roots sharing one memo (id -> value)."""
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            key = id(node)
            if key in memo:
                stack.pop()
                continue
            pending = [a for a in node.args if id(a) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            kind = node.kind
            if kind == "const":
                memo[key] = node.value
            elif kind == "var":
                memo[key] = x[node.index]
            elif kind == "param":
                memo[key] = p[node.index]
            elif kind in ex.UNARY_OPS:
                memo[key] = _apply_unary(kind, memo[id(node.args[0])], node)
            else:
                memo[key] = _apply_binary(
                    kind, memo[id(node.args[0])], memo[id(node.args[1])], node
                )
    return memo


def _args(fun, x, p):
    # Python floats, as the tapes load them
    x = np.asarray(x, dtype=float).tolist()
    p = [0.0] * fun.n_p if p is None else np.asarray(p, dtype=float).tolist()
    return x, p


def _grad_graphs(fun):
    return [[ex.diff(o, i) for i in range(fun.n_x)] for o in fun.outputs]


def ref_evaluate(fun, x, p=None):
    x, p = _args(fun, x, p)
    memo = _walk(fun.outputs, x, p, {})
    return np.array([memo[id(o)] for o in fun.outputs])


def ref_jacobian(fun, x, p=None):
    x, p = _args(fun, x, p)
    if fun.n_out == 0:
        return np.zeros((0, fun.n_x))
    grads = _grad_graphs(fun)
    memo = _walk([g for row in grads for g in row], x, p, {})
    return np.array([[memo[id(g)] for g in row] for row in grads])


def ref_gradient(fun, x, p=None):
    return ref_jacobian(fun, x, p)[0]


def _ref_hessian_single(fun, j, x, p):
    # the graphs are rebuilt per call, so the memo (keyed by id) is too
    n = fun.n_x
    grad = _grad_graphs(fun)[j]
    rows = [[ex.diff(grad[i], k) for k in range(i, n)] for i in range(n)]
    memo = _walk([g for row in rows for g in row], x, p, {})
    H = np.zeros((n, n))
    for i in range(n):
        for k, g in enumerate(rows[i]):
            H[i, i + k] = H[i + k, i] = memo[id(g)]
    return H


def ref_lagrangian_hessian(f, g, h, x, p, kappa, mult):
    x, p = _args(f, x, p)
    H = _ref_hessian_single(f, 0, x, p)
    for j in range(g.n_out):
        if kappa[j] != 0.0:
            H += kappa[j] * _ref_hessian_single(g, j, x, p)
    for j in range(h.n_out):
        if mult[j] != 0.0:
            H += mult[j] * _ref_hessian_single(h, j, x, p)
    return H


# -- inputs --------------------------------------------------------------------

def _blocks():
    for problem in (tutorial(), coupled_qp(), ocp_chain()):
        for k, (sub, p) in enumerate(zip(problem.subproblems, problem.parameters)):
            yield f"{problem.name}[{k}]", sub, p


BLOCKS = list(_blocks())


def _points(sub, rng):
    yield sub.z0
    for _ in range(3):
        yield sub.z0 + rng.standard_normal(sub.n_x)


def _multipliers(n, rng):
    m = rng.standard_normal(n)
    m[::3] = 0.0  # zero multipliers are skipped by both
    return m


def assert_same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


def random_dag(rng, n_x, n_p, n_nodes, c=0.75):
    """Six outputs summing the nodes of a seeded random DAG of every operator.

    Operands are drawn from all earlier nodes, so subexpressions are shared.
    log/sqrt arguments, divisors and pow bases are square(.) + 0.5; pow
    exponents are themselves graphs, so pow with a variable exponent occurs.
    The one constant leaf is ``c``.
    """
    pool = [var(i) for i in range(n_x)] + [param(j) for j in range(n_p)]
    pool.append(ex.const(c))
    ops = ex.UNARY_OPS + ex.BINARY_OPS
    for k in range(n_nodes):
        op = ops[k % len(ops)]
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        if op in ("log", "sqrt"):
            e = getattr(ex, op)(ex.square(a) + 0.5)
        elif op in ex.UNARY_OPS:
            e = getattr(ex, op)(ex.sin(a) if op == "exp" else a)
        elif op == "div":
            e = a / (ex.square(b) + 0.5)
        elif op == "pow":
            e = Expression("pow", args=(ex.square(a) + 0.5, ex.sin(b)))
        else:
            e = Expression(op, args=(a, b))
        pool.append(e)
    made = pool[n_x + n_p + 1:]
    return [sum(made[k::6], ex.const(0.0)) for k in range(6)]


def _kinds(roots):
    seen, kinds, stack = set(), set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            kinds.add(node.kind)
            stack.extend(node.args)
    return kinds


# -- the operator table --------------------------------------------------------

UFUNC_OPS = [op for op, entry in ex._OPS.items() if entry.ufunc is not None]


def test_table_has_every_operator():
    assert set(ex._OPS) == set(ex.UNARY_OPS + ex.BINARY_OPS)


def _operands(op):
    """Columns of operands: +-0, subnormals, +-inf, 1e+-300, nan and random
    values, every pair of them for a binary operator."""
    rng = np.random.default_rng(len(op))
    vals = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, np.inf, -np.inf,
            1e300, -1e300, 1e-300, -1e-300, np.nan, 1.0, -1.0, 0.5, 2.0, 3.0]
    vals = np.array(vals + list(rng.standard_normal(14) * 10.0 ** rng.integers(-8, 9, 14)))
    if op in ex.UNARY_OPS:
        return (vals,)
    u, v = np.meshgrid(vals, vals)
    return (u.ravel(), v.ravel())


def _scalar_results(fn, cols):
    """fn on every row of operands, as Python floats and as np.float64:
    (values, where fn raised DomainEvalError)."""
    values, raised = [], []
    for row in zip(*[c.tolist() for c in cols]):
        try:
            values.append(fn(*row))
            raised.append(False)
        except ex.DomainEvalError:
            values.append(np.nan)
            raised.append(True)
    with np.errstate(all="ignore"):  # np.float64 operands warn where floats do not
        for k, row in enumerate(zip(*cols)):
            if not raised[k]:
                assert np.array(fn(*row)).tobytes() == np.array(values[k]).tobytes()
    return np.array(values), np.array(raised)


@pytest.mark.parametrize("op", UFUNC_OPS)
def test_ufunc_equals_scalar_function_bit_for_bit(op):
    entry = ex._OPS[op]
    cols = _operands(op)
    want, raised = _scalar_results(entry.fn, cols)
    with np.errstate(all="ignore"):
        got = entry.ufunc(*cols)
    ok = ~raised
    assert got[ok].tobytes() == want[ok].tobytes()


@pytest.mark.parametrize("op", UFUNC_OPS)
def test_domain_mask_is_where_the_scalar_function_raises(op):
    entry = ex._OPS[op]
    cols = _operands(op)
    _, raised = _scalar_results(entry.fn, cols)
    if entry.outside is None:
        assert not raised.any()
    else:
        assert raised.any()
        assert np.array_equal(entry.outside(*cols), raised)


# -- values --------------------------------------------------------------------

@pytest.mark.parametrize("name,sub,p", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_example_blocks_match_reference(name, sub, p):
    rng = np.random.default_rng(0)
    for x in _points(sub, rng):
        for fun in (sub.f, sub.g, sub.h):
            assert_same(ex.evaluate(fun, x, p), ref_evaluate(fun, x, p))
            assert_same(ex.jacobian(fun, x, p), ref_jacobian(fun, x, p))
        assert_same(ex.gradient(sub.f, x, p), ref_gradient(sub.f, x, p))
        kappa = _multipliers(sub.n_g, rng)
        mult = _multipliers(sub.n_h, rng)
        assert_same(
            ex.lagrangian_hessian(sub.f, sub.g, sub.h, x, p, kappa, mult),
            ref_lagrangian_hessian(sub.f, sub.g, sub.h, x, p, kappa, mult),
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_dag_with_every_operator_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n_x, n_p = 3, 2
    outs = random_dag(rng, n_x, n_p, 36)
    assert _kinds(outs) >= set(ex.UNARY_OPS + ex.BINARY_OPS) | {"var", "param"}
    g = VectorFunction(outs, n_x, n_p)
    f = VectorFunction([outs[0] * outs[1] + outs[2]], n_x, n_p)
    h = VectorFunction(outs[3:], n_x, n_p)
    for _ in range(4):
        x = rng.uniform(-1.5, 1.5, n_x)
        p = rng.uniform(-1.5, 1.5, n_p)
        assert np.isfinite(ref_evaluate(g, x, p)).all()
        assert_same(ex.evaluate(g, x, p), ref_evaluate(g, x, p))
        assert_same(ex.jacobian(g, x, p), ref_jacobian(g, x, p))
        assert_same(ex.gradient(f, x, p), ref_gradient(f, x, p))
        kappa = _multipliers(g.n_out, rng)
        mult = _multipliers(h.n_out, rng)
        assert_same(
            ex.lagrangian_hessian(f, g, h, x, p, kappa, mult),
            ref_lagrangian_hessian(f, g, h, x, p, kappa, mult),
        )


def test_pow_with_variable_exponent_and_param_leaves():
    base = ex.square(var(0)) + param(0)
    g = VectorFunction([base ** var(1), ex.const(2.0) ** (var(1) * param(1))], 2, 2)
    f = VectorFunction([g.outputs[0] * g.outputs[1]], 2, 2)
    for x, p in (([0.3, -1.2], [0.5, 2.0]), ([1.7, 0.4], [2.0, -0.3])):
        assert_same(ex.evaluate(g, x, p), ref_evaluate(g, x, p))
        assert_same(ex.jacobian(g, x, p), ref_jacobian(g, x, p))
        assert_same(
            ex.lagrangian_hessian(f, g, g, x, p, [0.5, -2.0], [1.0, 0.0]),
            ref_lagrangian_hessian(f, g, g, x, p, [0.5, -2.0], [1.0, 0.0]),
        )


# -- errors and overflow -------------------------------------------------------

def _raised(fn, *args):
    try:
        fn(*args)
    except ex.DomainEvalError as err:
        return err
    return None


@pytest.mark.parametrize(
    "e",
    [
        ex.log(var(0)) + ex.sqrt(var(1)),
        ex.sqrt(var(1)) * ex.log(var(0)),
        var(0) / (var(0) - var(1)) + ex.log(var(1)),
        var(0) ** var(1) - ex.sqrt(var(0)),
    ],
    ids=["log+sqrt", "sqrt*log", "div+log", "pow-sqrt"],
)
def test_domain_errors_at_same_inputs_and_node(e):
    f = VectorFunction([e], 2)
    points = [(a, b) for a in (-1.0, 0.0, 2.0) for b in (-1.0, 0.0, 0.5, 2.0)]
    n_raised = 0
    for x in points:
        got = _raised(ex.evaluate, f, x)
        want = _raised(ref_evaluate, f, x)
        assert (got is None) == (want is None), x
        if got is not None:
            n_raised += 1
            assert got.node is want.node
            assert str(got) == str(want)
        # derivative graphs are rebuilt by the reference: compare structure
        for fn, ref in ((ex.gradient, ref_gradient), (ex.jacobian, ref_jacobian)):
            got = _raised(fn, f, x)
            want = _raised(ref, f, x)
            assert (got is None) == (want is None), x
            if got is not None:
                assert got.node == want.node
    assert n_raised > 0


@pytest.mark.parametrize("op", ["sin", "cos"])
def test_sin_and_cos_at_infinity_raise_domain_errors_naming_their_node(op):
    f = VectorFunction([getattr(ex, op)(var(0)) + var(1)], 2)
    for x in ([np.inf, 0.0], [-np.inf, 1.0]):
        got = _raised(ex.evaluate, f, x)
        want = _raised(ref_evaluate, f, x)
        assert got.node is want.node and got.node.kind == op
        assert str(got) == str(want)
    with pytest.raises(ex.DomainEvalError, match=f"{op} of infinite value inf"):
        getattr(ex, op)(ex.const(np.inf))


def test_exp_overflow_gives_inf():
    f = VectorFunction([ex.exp(var(0)), -ex.exp(var(0))], 1)
    x = [1000.0]
    assert_same(ex.evaluate(f, x), np.array([np.inf, -np.inf]))
    assert_same(ex.evaluate(f, x), ref_evaluate(f, x))
    assert_same(ex.jacobian(f, x), ref_jacobian(f, x))


# -- structure and aliasing ----------------------------------------------------

def test_affine_rows_have_no_hessian_tape():
    sub = ocp_chain().subproblems[0]
    assert all(sub.g._compiled_hessian(j) is None for j in range(sub.n_g))
    assert sub.f._compiled_hessian(0) is not None
    assert not sub.f._compiled_hessian(0).code  # a quadratic's Hessian folds to constants


def test_constant_results_are_fresh_arrays():
    problem = ocp_chain()
    sub, p = problem.subproblems[1], problem.parameters[1]
    x = sub.z0
    kappa = np.linspace(-1.0, 1.0, sub.n_g)
    J0 = ex.jacobian(sub.g, x, p).copy()
    H0 = ex.lagrangian_hessian(sub.f, sub.g, sub.h, x, p, kappa, []).copy()

    J = ex.jacobian(sub.g, x, p)
    J += 1.0
    H = ex.lagrangian_hessian(sub.f, sub.g, sub.h, x, p, kappa, [])
    H += 2.0 * H
    H[0, 0] = -7.0
    assert_same(ex.jacobian(sub.g, x, p), J0)
    assert_same(ex.lagrangian_hessian(sub.f, sub.g, sub.h, x, p, kappa, []), H0)


def owner(a):
    return a if a.base is None else a.base


def test_functions_without_outputs_share_one_empty_tape():
    funs = [VectorFunction([], 1), VectorFunction([], 3, 2), VectorFunction([], 3, 2)]
    for f in funs:
        assert f._compiled_outputs() is ex._EMPTY_TAPE
        assert f._compiled_jacobian() is ex._EMPTY_TAPE
    f, x, p = funs[1], np.ones(3), np.ones(2)
    for call, shape in ((ex.evaluate, (0,)), (ex.jacobian, (0, 3))):
        a, b = call(f, x, p), call(f, x, p)
        assert a.shape == b.shape == shape
        assert a.flags.writeable and b.flags.writeable
        assert owner(a) is not owner(b)
        assert ex._EMPTY_TAPE.base is not owner(a)
    # a result grown and written in place leaves the next one empty
    a = ex.evaluate(f, x, p)
    a.resize(4, refcheck=False)
    a[:] = 7.0
    assert ex.evaluate(f, x, p).shape == (0,)
    assert ex.jacobian(f, x, p).shape == (0, 3)


@pytest.mark.parametrize("lanes", [[0], [1], [0, 1, 2], [2, 0]])
def test_lane_runs_of_empty_functions_return_fresh_arrays(lanes):
    f = VectorFunction([ex.square(var(0)) + var(1)], 2)
    (group,) = group_blocks([Subproblem(f) for _ in range(3)])
    lanes = np.array(lanes)
    X, P = np.ones((lanes.size, 2)), np.zeros((lanes.size, 0))
    for pos in (local._G, local._JG, local._H, local._JH):
        tape = group.lane[pos]
        runs = [tape.run(X, P, lanes, {}) for _ in range(2)]
        for out in runs:
            assert out.shape == (lanes.size, 0) and out.flags.writeable
            assert owner(out) is not tape.base
            assert owner(out) is not ex._EMPTY_TAPE.base
        assert owner(runs[0]) is not owner(runs[1])
        # a result grown and written in place leaves the next one empty
        grown = owner(tape.run(X, P, lanes, {}))
        grown.resize(4, refcheck=False)
        grown[:] = 7.0
        assert tape.run(X, P, lanes, {}).shape == (lanes.size, 0)


def test_absent_and_empty_constraints_group_alike():
    def block(n_x, c, g=None, h=None):
        f = VectorFunction([c * ex.square(var(0)) + var(n_x - 1)], n_x)
        return Subproblem(f, g=g, h=h)

    empty2, empty3 = VectorFunction([], 2), VectorFunction([], 3)
    subs = [block(2, 1.5), block(3, 2.0), block(2, -0.5, g=empty2),
            block(2, 4.0, h=VectorFunction([], 2)), block(3, 1.25, g=empty3),
            block(2, 3.0, g=VectorFunction([var(0)], 2)),
            block(2, 2.5, g=empty2, h=empty2)]
    assert [g.blocks for g in group_blocks(subs)] == [(0, 2, 3, 6), (1, 4), (5,)]


def test_hessian_term_does_not_write_into_objective_tape():
    # lagrangian_hessian adds into the objective's Hessian with +=
    f = VectorFunction([ex.square(var(0)) + var(0) * var(1)], 2)
    g = VectorFunction([ex.square(var(1))], 2)
    empty = VectorFunction([], 2)
    H0 = ex.lagrangian_hessian(f, empty, empty, [0.0, 0.0], None, [], []).copy()
    ex.lagrangian_hessian(f, g, empty, [0.0, 0.0], None, [3.0], [])
    assert_same(ex.lagrangian_hessian(f, empty, empty, [0.0, 0.0], None, [], []), H0)


def test_concurrent_first_use_matches_sequential():
    rng = np.random.default_rng(5)
    outs = random_dag(rng, 3, 1, 24)
    x, p = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 1)
    mult = np.ones(len(outs))

    def work(fun):
        return (
            ex.evaluate(fun, x, p),
            ex.jacobian(fun, x, p),
            ex.lagrangian_hessian(VectorFunction([outs[0]], 3, 1), fun, fun,
                                  x, p, mult, mult),
        )

    want = work(VectorFunction(outs, 3, 1))
    shared = VectorFunction(outs, 3, 1)  # every thread compiles its tapes
    results = [None] * 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(k):
            results[k] = work(shared)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for got in results:
        assert got is not None
        for a, b in zip(got, want):
            assert_same(a, b)


# -- lane tapes ----------------------------------------------------------------

def lane_functions(seed, consts, n_x=3, n_p=2):
    """One seeded random DAG per constant: equal structure, other constants."""
    outs = [random_dag(np.random.default_rng(seed), n_x, n_p, 36, c) for c in consts]
    return [VectorFunction(o, n_x, n_p) for o in outs]


def root_sets(fun):
    """Every tape of a function: outputs, Jacobian, each output's Hessian."""
    return [fun._compiled_outputs(), fun._compiled_jacobian()] + [
        fun._compiled_hessian(j) for j in range(fun.n_out)
    ]


def assert_lanes_match(funs, X, P):
    """Each lane tape against its lanes' scalar tapes, every lane a row."""
    lanes = np.arange(len(funs))
    for tapes in zip(*map(root_sets, funs)):
        if tapes[0] is None:
            assert all(t is None for t in tapes)
            continue
        assert len({t.key for t in tapes}) == 1
        errors = {}
        got = ex._LaneTape(list(tapes)).run(X, P, lanes, errors)
        assert not errors
        for k, t in enumerate(tapes):
            want = t.run(X[k], P[k])
            assert np.array_equal(got[k], want, equal_nan=True)
            assert np.array_equal(np.signbit(got[k]), np.signbit(want))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lane_tapes_match_scalar_tapes_on_random_dags(seed):
    funs = lane_functions(seed, (0.75, 1.3, -0.4, 2.2))
    assert _kinds(funs[0].outputs) >= set(ex.UNARY_OPS + ex.BINARY_OPS) | {"var", "param"}
    rng = np.random.default_rng(10 + seed)
    for _ in range(3):
        X = rng.uniform(-1.5, 1.5, (4, 3))
        P = rng.uniform(-1.5, 1.5, (4, 2))
        assert_lanes_match(funs, X, P)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_lane_tapes_overflow_to_inf_lane_by_lane():
    funs = [VectorFunction([c * ex.exp(var(0)) + ex.square(var(1)), -ex.exp(var(0)) * c],
                           2) for c in (2.0, -3.0, 0.5)]
    # lane 0 overflows in exp, lane 1 in the square, lane 2 not at all
    X = np.array([[800.0, 0.0], [1.0, 1e200], [0.3, 2.0]])
    assert_lanes_match(funs, X, np.zeros((3, 0)))
    got = ex._LaneTape([f._compiled_outputs() for f in funs]).run(
        X, np.zeros((3, 0)), np.arange(3), {}
    )
    assert np.isinf(got[0]).all() and np.isinf(got[1, 0]) and np.isfinite(got[2]).all()


@pytest.mark.parametrize(
    "build",
    [
        lambda c: ex.log(var(0) + c) + ex.sqrt(var(1) - c),
        lambda c: ex.sqrt(var(1) * c) * ex.log(var(0)),
        lambda c: var(0) / (var(0) - var(1) * c) + ex.log(var(1)),
        lambda c: (var(0) * c) ** var(1) - ex.sqrt(var(0)),
        lambda c: var(1) / (var(0) + var(1) * c),
        lambda c: ex.sqrt(var(0) * c),
        # the sqrt's operand is a Python float in the scalar run
        lambda c: ex.sqrt(ex.exp(var(0)) - 4.0 * c),
    ],
    ids=["log+sqrt", "sqrt*log", "div+log", "pow-sqrt", "div", "sqrt", "sqrt-of-exp"],
)
def test_lane_domain_errors_name_each_lanes_node(build):
    consts = (0.75, 1.5, -2.5)
    funs = [VectorFunction([build(c)], 2) for c in consts]
    tapes = [f._compiled_outputs() for f in funs]
    lane = ex._LaneTape(tapes)
    points = [(a, b) for a in (-1.0, 0.0, 2.0) for b in (-1.0, 0.0, 0.5, 2.0)]
    n_raised = 0
    for shift in range(len(points)):
        # every lane at another point, so some rows fail while others run;
        # row k runs the block lanes[k]
        X = np.array([points[(shift + k) % len(points)] for k in range(3)])
        for lanes in (np.arange(3), np.array([2, 0, 1])):
            errors = {}
            got = lane.run(X, np.zeros((3, 0)), lanes, errors)
            for k, t in enumerate(tapes[i] for i in lanes):
                want = _raised(t.run, X[k], np.zeros(0))
                if want is None:
                    assert k not in errors
                    assert np.array_equal(got[k], t.run(X[k], np.zeros(0)), equal_nan=True)
                else:
                    n_raised += 1
                    assert errors[k].node is want.node
                    assert str(errors[k]) == str(want)
    assert n_raised > 0


@pytest.mark.parametrize("op", ["sin", "cos"])
def test_one_lane_at_infinity_fails_alone_in_sin_and_cos(op):
    funs = [VectorFunction([getattr(ex, op)(var(0) * c) + var(1)], 2)
            for c in (0.5, 2.0, -3.0)]
    X = np.array([[0.3, 1.0], [np.inf, 0.0], [-1.2, 2.0]])
    for tapes in zip(*[(f._compiled_outputs(), f._compiled_jacobian()) for f in funs]):
        errors = {}
        got = ex._LaneTape(list(tapes)).run(X, np.zeros((3, 0)), np.arange(3), errors)
        want = _raised(tapes[1].run, X[1], np.zeros(0))
        assert list(errors) == [1]
        assert errors[1].node is want.node and str(errors[1]) == str(want)
        for k in (0, 2):
            assert got[k].tobytes() == tapes[k].run(X[k], np.zeros(0)).tobytes()


def test_lane_errors_keep_each_rows_first_error():
    # as a block's evaluation raises at its first failing root set, a row
    # that fails in two lane tapes run one after the other keeps the first
    first = [VectorFunction([ex.log(var(0) * c)], 1) for c in (2.0, -3.0)]
    second = [VectorFunction([ex.sqrt(var(0) * c)], 1) for c in (2.0, -3.0)]
    X = np.array([[-1.0], [-1.0]])
    errors = {}
    for funs in (first, second):
        ex._LaneTape([f._compiled_outputs() for f in funs]).run(
            X, np.zeros((2, 0)), np.arange(2), errors
        )
    assert list(errors) == [0]
    want = _raised(first[0]._compiled_outputs().run, X[0], np.zeros(0))
    assert errors[0].node is want.node and str(errors[0]) == str(want)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_lane_tapes_on_permuted_subsets_of_every_size(seed):
    # every lane count from 2 to N, on the first lanes and on a random draw
    # of them in random order: row k is the block lanes[k] at its own point
    funs = lane_functions(seed, (0.75, 1.3, -0.4, 2.2, 0.1, -1.7))
    N = len(funs)
    rng = np.random.default_rng(30 + seed)
    X = rng.uniform(-1.5, 1.5, (N, 3))
    P = rng.uniform(-1.5, 1.5, (N, 2))
    n_runs = 0
    for tapes in zip(*map(root_sets, funs)):
        if tapes[0] is None:
            continue
        lane = ex._LaneTape(list(tapes))
        for k in range(2, N + 1):
            for lanes in (np.arange(k), rng.permutation(N)[:k]):
                errors = {}
                got = lane.run(X[lanes], P[lanes], lanes, errors)
                assert not errors and got.flags.c_contiguous
                for r, i in enumerate(lanes):
                    assert_same_bits(got[r], tapes[i].run(X[i], P[i]))
                n_runs += 1
    assert n_runs > 40


def test_wavefront_batches_cover_the_tape_in_order():
    # the batches write the last rows, one contiguous block each, in order,
    # and each reads only rows written before it: loads, constants, or
    # earlier batches
    funs = lane_functions(3, (0.75, 1.3))
    for tapes in zip(*map(root_sets, funs)):
        if tapes[0] is None:
            continue
        waves = ex._LaneTape(list(tapes)).waves
        every = np.arange(len(waves.init))
        rows = [every[dst].reshape(-1) for *_, dst, _, _ in waves.batches]
        written = np.concatenate(rows)
        assert len(waves.batches) < len(written) == len(tapes[0].code)
        assert np.array_equal(written, every[len(every) - len(written):])
        for dst, (*_, a, b) in zip(rows, waves.batches):
            for operand in (a, b):
                if operand is not None:
                    assert every[operand].max() < dst[0]


def wavefront_failures(c):
    """sqrt, div and log instructions sharing their wavefronts, each failing
    at other points; the first root's outer sqrt fails two levels deeper
    than the others, but comes first in the tape."""
    x0, x1, x2 = var(0), var(1), var(2)
    return [
        ex.sqrt(ex.sqrt(x0 + c) - 1.0),
        ex.sqrt(x1 - c) + x2 / (x0 - c),
        ex.log(x2 * c) - x1 / (x2 + c),
        ex.sqrt(x2 - x1) * ex.sqrt(x0 * x1),
    ]


def test_lane_errors_in_shared_wavefronts_stay_each_rows_own():
    consts = (0.75, 1.5, -0.5, 0.25)
    funs = [VectorFunction(wavefront_failures(c), 3) for c in consts]
    tapes = [f._compiled_outputs() for f in funs]
    lane = ex._LaneTape(tapes)
    # several sqrt instructions and several div instructions run as one batch
    sizes = {}
    for fn, _, _, dst, _, _ in lane.waves.batches:
        if isinstance(dst, slice):
            sizes[fn] = max(sizes.get(fn, 0), dst.stop - dst.start)
    assert sizes[ex._sqrt] >= 3 and sizes[ex._div] >= 2
    grid = (-1.0, 0.0, 0.5, 2.0)
    points = [(a, b, d) for a in grid for b in grid for d in grid]
    rng = np.random.default_rng(4)
    n_raised, nodes = 0, set()
    for shift in range(0, len(points), 3):
        X = np.array([points[(shift + 17 * k) % len(points)] for k in range(4)])
        for lanes in (np.arange(4), np.array([3, 1, 0, 2]), rng.permutation(4)[:3]):
            errors = {}
            got = lane.run(X[:len(lanes)], np.zeros((len(lanes), 0)), lanes, errors)
            for k, i in enumerate(lanes):
                want = _raised(tapes[i].run, X[k], np.zeros(0))
                if want is None:
                    assert k not in errors
                    assert_same_bits(got[k], tapes[i].run(X[k], np.zeros(0)))
                else:
                    n_raised += 1
                    nodes.add(id(want.node))
                    assert errors[k].node is want.node
                    assert str(errors[k]) == str(want)
            assert set(errors) <= set(range(len(lanes)))
    assert n_raised > 50 and len(nodes) >= 6


def one_lane_only(monkeypatch):
    """Make the lane loop fail if a single-lane run enters it."""
    def refuse(*args):
        raise AssertionError("a single lane entered the ufunc loop")

    monkeypatch.setattr(ex._LaneTape, "_run_lanes", refuse)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_lane_runs_its_own_scalar_tape_bit_for_bit(monkeypatch, seed):
    one_lane_only(monkeypatch)
    funs = lane_functions(seed, (0.75, 1.3, -0.4))
    # signed zeros come out of neg and of products with a negative constant
    signed = [VectorFunction([ex.neg(var(0)), c * var(0) * var(1), var(1) - var(0)], 2)
              for c in (-2.0, 3.0, -0.5)]
    rng = np.random.default_rng(20 + seed)
    cases = [(funs, rng.uniform(-1.5, 1.5, (1, 3)), rng.uniform(-1.5, 1.5, (1, 2))),
             (signed, np.array([[0.0, -0.0]]), np.zeros((1, 0)))]
    n_negzero = 0
    for group, X, P in cases:
        for tapes in zip(*map(root_sets, group)):
            if tapes[0] is None:
                continue
            lane = ex._LaneTape(list(tapes))
            for k, t in enumerate(tapes):
                errors = {}
                got = lane.run(X, P, np.array([k]), errors)
                want = t.run(X[0], P[0])
                assert not errors
                assert got.shape == (1,) + want.shape
                assert np.array_equal(got[0], want, equal_nan=True)
                assert np.array_equal(np.signbit(got[0]), np.signbit(want))
                n_negzero += int(np.sum((want == 0.0) & np.signbit(want)))
    assert n_negzero > 0


@pytest.mark.parametrize(
    "build",
    [
        lambda c: ex.log(var(0) + c) + ex.sqrt(var(1) - c),
        lambda c: var(0) / (var(0) - var(1) * c) + ex.log(var(1)),
        # a constant exponent, and a base that is a Python float in the
        # scalar run: the message is the scalar run's
        lambda c: (ex.exp(var(0)) - 4.0 * c) ** 0.5,
    ],
    ids=["log+sqrt", "div+log", "pow-const-exponent"],
)
def test_one_lane_puts_the_scalar_error_under_row_0(monkeypatch, build):
    one_lane_only(monkeypatch)
    funs = [VectorFunction([build(c)], 2) for c in (0.75, 1.5, -2.5)]
    tapes = [f._compiled_outputs() for f in funs]
    lane = ex._LaneTape(tapes)
    n_raised = 0
    for a in (-1.0, 0.0, 2.0):
        for b in (-1.0, 0.0, 0.5, 2.0):
            X = np.array([[a, b]])
            for k, t in enumerate(tapes):
                errors = {}
                got = lane.run(X, np.zeros((1, 0)), np.array([k]), errors)
                want = _raised(t.run, X[0], np.zeros(0))
                if want is None:
                    assert not errors
                    assert np.array_equal(got[0], t.run(X[0], np.zeros(0)))
                    continue
                n_raised += 1
                assert list(errors) == [0]
                assert errors[0].node is want.node
                assert str(errors[0]) == str(want)
                assert got.shape == (1, 1) and np.isnan(got).all()
                # an earlier error of the row is kept
                kept = {0: want}
                lane.run(X, np.zeros((1, 0)), np.array([k]), kept)
                assert kept[0] is want
    assert n_raised > 0


def test_structural_keys_equal_exactly_for_equal_structure():
    def block(c, d):
        f = VectorFunction([c * ex.square(var(0)) + d * var(0) * var(1)], 2)
        return Subproblem(f, g=VectorFunction([ex.sin(var(1)) * d], 2))

    subs = [block(2.0, -0.5), block(3.5, 0.25), block(1.0, 0.25),
            block(2.0, 0.0), block(-1.5, 4.0)]
    keys = [tuple(t.key if t is not None else None for t in root_sets(s.f) + root_sets(s.g))
            for s in subs]
    # a constant that folds to 1 or 0 changes the graph, the others only values
    assert keys[0] == keys[1] == keys[4]
    assert keys[2] != keys[0] and keys[3] != keys[0] and keys[2] != keys[3]
    # groups follow the shapes and the absent tapes, not the keys: block 3's
    # zero weight leaves g affine, so g's row has no Hessian
    groups = group_blocks(subs)
    assert [g.blocks for g in groups] == [(0, 1, 2, 4), (3,)]


def folded_block(c, d):
    """A block whose tapes change structure where d folds, not its shapes.

    d = 0 drops f's shift of x1 and its x1 term, d = 1 folds the x1 term's
    weight and leaves h's Hessian constant; x0 <= 0 leaves f's log domain.
    """
    x0, x1 = var(0), var(1)
    f = VectorFunction([c * (x0 * ex.log(x0)) + ex.square(x1 - d) + d * x1], 2)
    h = VectorFunction([ex.square(x0) + (d - 1.0) * ex.sin(x1) - c], 2)
    return Subproblem(f, h=h, A=[[1.0, 0.0]])


FOLDED = [(1.5, 0.0), (0.7, 2.5), (2.5, 1.0), (3.0, 0.0), (0.4, -0.5), (1.2, 1.0)]


def test_lane_tapes_split_by_key_and_give_each_lane_its_own_tape():
    subs = [folded_block(c, d) for c, d in FOLDED]
    (group,) = group_blocks(subs)
    split = [lane for lane in group.lane if lane is not None and lane.parts is not None]
    # f's value tape splits too, though the local solver never runs it
    split.append(ex._LaneTape([s.f._compiled_outputs() for s in subs]))
    assert len(split) >= 4
    assert any(len({part.constant for _, part in lane.parts}) == 2 for lane in split)
    rng = np.random.default_rng(8)
    X = rng.uniform(0.2, 2.0, (6, 2))
    P = np.zeros((6, 0))
    for lane in split:
        for lanes in (np.arange(6), np.array([1, 2, 4]), np.array([5, 0, 3, 2]),
                      np.array([3]), np.array([2])):
            errors = {}
            got = lane.run(X[lanes], P[lanes], lanes, errors)
            assert not errors and got.shape == (len(lanes), lane.base.shape[1])
            for r, i in enumerate(lanes):
                assert_same_bits(got[r], lane.tapes[i].run(X[i], P[i]))


def test_a_part_puts_its_lanes_errors_under_their_rows():
    subs = [folded_block(c, d) for c, d in FOLDED]
    (group,) = group_blocks(subs)
    lane = group.lane[local._GRAD_F]
    assert len(lane.parts) == 3
    # lanes 0 and 3 (d = 0), 2 (d = 1) and 4 (d = -0.5) are outside the log
    # domain: failures in each of the three parts
    X = np.array([[-1.0, 0.5], [0.5, 0.5], [0.0, 1.0], [-0.5, 0.2], [-2.0, 0.3],
                  [0.8, 0.1]])
    P = np.zeros((6, 0))
    for lanes in (np.arange(6), np.array([4, 1, 3, 2]), np.array([3])):
        errors = {}
        got = lane.run(X[lanes], P[lanes], lanes, errors)
        failed = 0
        for r, i in enumerate(lanes):
            want = _raised(lane.tapes[i].run, X[i], P[i])
            if want is None:
                assert r not in errors
                assert_same_bits(got[r], lane.tapes[i].run(X[i], P[i]))
            else:
                failed += 1
                assert errors[r].node is want.node and str(errors[r]) == str(want)
        assert len(errors) == failed > 0
        # an earlier error of a row is kept
        kept = {r: ValueError(r) for r in range(len(lanes))}
        lane.run(X[lanes], P[lanes], lanes, kept)
        assert all(type(err) is ValueError and err.args == (r,) for r, err in kept.items())


def test_one_key_builds_no_partition():
    subs = [folded_block(c, 2.5 + c) for c, _ in FOLDED]
    (group,) = group_blocks(subs)
    assert all(lane is None or lane.parts is None for lane in group.lane)
    tapes = [s.f._compiled_jacobian() for s in (folded_block(1.5, 0.0), folded_block(2.5, 0.0))]
    assert ex._LaneTape(tapes).parts is None
    # a single lane is not split, whatever its key
    assert ex._LaneTape(tapes[:1]).parts is None


def test_objective_of_a_mixed_key_group_adds_the_solo_values_in_block_order():
    subs = [folded_block(c, d) for c, d in FOLDED]
    _, state, _, _ = driver._start(SeparableProblem(subs, b=[1.0]), SolverOptions(), None, None)
    assert len(state.groups) == 1
    X = [np.random.default_rng(9).uniform(0.2, 2.0, (6, 2))]
    want = 0.0
    for k, sub in enumerate(subs):
        want += ex.evaluate(sub.f, X[0][k])[0]
    got = driver._objective(state, X)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # blocks 2 and 4, of two parts, leave the domain: block 2's error is raised
    X[0][[2, 4], 0] = (-1.0, -0.5)
    with pytest.raises(ex.DomainEvalError) as got:
        driver._objective(state, X)
    alone = _raised(ex.evaluate, subs[2].f, X[0][2])
    assert got.value.node is alone.node and str(got.value) == str(alone)


def test_zero_multiplier_skips_its_hessian_term_per_lane():
    # the g row's Hessian overflows at x0 = 30; a lane whose multiplier is
    # zero must not add 0 * inf, nor evaluate the term at all
    def block(c):
        f = VectorFunction([ex.square(var(0) - c) + c * ex.square(var(1))], 2)
        return Subproblem(f, g=VectorFunction([ex.exp(c * ex.square(var(0)))], 2))

    subs = [block(c) for c in (2.0, 3.0, 0.7)]
    (group,) = group_blocks(subs)
    w = local._Work(group, np.zeros((3, 2)), np.zeros(0), np.array([np.eye(2)] * 3),
                    np.zeros((3, 0)))
    x = np.array([[30.0, 1.0], [30.0, -1.0], [0.2, 0.3]])
    for kappa in ([0.0, 1.5, -0.5], [2.0, 0.0, 0.0], [0.0, -0.0, 0.0]):
        kappa = np.array(kappa)[:, None]
        errors = {}
        H = w.hess(x, kappa, np.zeros((3, 0)), errors)
        assert not errors
        for k, sub in enumerate(subs):
            want = ex.lagrangian_hessian(sub.f, sub.g, sub.h, x[k], np.zeros(0),
                                         kappa[k], np.zeros(0)) + 2.0 * np.eye(2)
            assert np.array_equal(H[k], want, equal_nan=True)
            assert np.array_equal(np.signbit(H[k]), np.signbit(want))
        assert np.isfinite(H[kappa[:, 0] == 0.0]).all()


# -- structures shared within a problem ----------------------------------------

def standalone(fun):
    """The root sets of a copy of ``fun`` that shares no structure."""
    return root_sets(VectorFunction(fun.outputs, fun.n_x, fun.n_p))


def assert_tapes_are_own(fun):
    """``fun``'s root sets equal those it compiles alone: key, constants."""
    for got, want in zip(root_sets(fun), standalone(fun), strict=True):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.key == want.key
            assert np.array(got.init).tobytes() == np.array(want.init).tobytes()
            assert got.base.tobytes() == want.base.tobytes()


def sharing_problems():
    from test_driver_reference import interleaved_chain
    from test_sensitivity_reference import disc_chain

    return [coupled_qp(n_blocks=400, block_size=2), ocp_chain(), tutorial(),
            disc_chain(), interleaved_chain()]


@pytest.mark.parametrize("problem", sharing_problems(), ids=lambda p: p.name or "chain")
def test_every_block_takes_the_tapes_it_compiles_alone(problem):
    funs = [fun for s in problem.subproblems for fun in (s.f, s.g, s.h)]
    for fun in funs:
        assert_tapes_are_own(fun)
    rng = np.random.default_rng(2)
    for s, p in zip(problem.subproblems, problem.parameters):
        x = s.z0 + rng.standard_normal(s.n_x)
        for fun in (s.f, s.g, s.h):
            assert_same(ex.evaluate(fun, x, p), ref_evaluate(fun, x, p))
            assert_same(ex.jacobian(fun, x, p), ref_jacobian(fun, x, p))


def test_blocks_of_one_structure_share_their_instructions():
    problem = coupled_qp(n_blocks=400, block_size=2)
    tapes = [t for s in problem.subproblems for t in local._root_sets(s) if t is not None]
    assert len(tapes) == 2400
    # grad f, the Hessian of f and the empty tape of g and h
    assert len({id(t.code) for t in tapes}) == len({id(t.key) for t in tapes}) == 3
    # every block's f tapes are the first block's, with its own constants
    first = root_sets(problem.subproblems[0].f)
    for s in problem.subproblems[1:]:
        for t, rep in zip(root_sets(s.f), first):
            assert t.code is rep.code and t.key is rep.key
            assert t.own is not None and rep.own is None


def power_block(c):
    return Subproblem(VectorFunction([var(0) ** c + ex.sin(var(1))], 2))


@pytest.mark.parametrize("exponents", [(3.0, 2.5, 5.5), (2.5, 3.0, 5.5)])
def test_a_derived_constant_of_another_fold_class_splits(exponents):
    # d/dx x**c is c * x**(c - 1): c - 1 = 2 folds to square, 1.5 and 4.5
    # do not, and neither do the Hessians' exponents 0.5 and 3.5
    problem = SeparableProblem([power_block(c) for c in exponents])
    fs = [s.f for s in problem.subproblems]
    assert len({f._key for f in fs}) == 1
    for f in fs:
        assert_tapes_are_own(f)
    hess = [f._compiled_hessian(0) for f in fs]
    assert hess[0].key != hess[1].key
    assert (hess[2].code is hess[0].code) == (exponents[0] != 3.0)


def shifted_sine_block(c):
    # c only enters x0 + c, whose derivative 1 holds no c: no fold reads c
    return Subproblem(VectorFunction([ex.sin(var(0) + c) + ex.square(var(1))], 2))


@pytest.mark.parametrize("block, folds", [(power_block, True), (shifted_sine_block, False)])
def test_one_other_function_replays_its_folds_without_a_scalar_program(
        monkeypatch, block, folds):
    # the fold tape of a structure of two functions runs as its wavefront
    # program on the one other function's lane; without instructions it
    # runs no program at all
    replays = []
    replay = ex._replay

    def spy(program, consts):
        replays.append((program.tape, len(consts)))
        return replay(program, consts)

    monkeypatch.setattr(ex, "_replay", spy)
    problem = SeparableProblem([block(2.5), block(4.5)])
    fs = [s.f for s in problem.subproblems]
    for f in fs:
        assert_tapes_are_own(f)
    assert len(replays) == 2  # the outputs, then the derivatives
    assert any(tape.code for tape, _ in replays) == folds
    for tape, m in replays:
        assert m == 1
        assert tape.programs.scalar is None
        assert (tape.programs.waves is not None) == bool(tape.code)


def test_a_leaf_constant_keys_by_its_fold_class():
    # built without the operators' folding, c = 0 and c = 1 survive in the
    # graph, and the derivative folds c * cos(x0) on them
    def block(c):
        f = Expression("mul", args=(ex.const(c), ex.sin(var(0))))
        return Subproblem(VectorFunction([f + ex.square(var(1))], 2))

    consts = (2.5, 1.0, 0.0, -0.0, 3.5, 2.0)
    problem = SeparableProblem([block(c) for c in consts])
    fs = [s.f for s in problem.subproblems]
    keys = [f._key for f in fs]
    assert keys[0] == keys[4] and keys[2] == keys[3]
    assert len(set(keys)) == 4
    for f in fs:
        assert_tapes_are_own(f)
    assert fs[4]._compiled_jacobian().code is fs[0]._compiled_jacobian().code
    assert fs[3]._compiled_jacobian().code is fs[2]._compiled_jacobian().code


def product_block(c, d):
    # d/dx0 of (c (d x0)) sin(x0) starts with (c d) sin(x0): c d = 1 folds
    # the product away, c d = 0 the whole term
    x0 = var(0)
    return Subproblem(VectorFunction([(c * (d * x0)) * ex.sin(x0) + ex.square(var(1))], 2))


def test_a_derived_constant_reaching_0_or_1_in_one_block_splits():
    pairs = [(3.0, 1.5), (0.25, 4.0), (1e-200, 1e-200), (3.0, 0.25)]
    problem = SeparableProblem([product_block(c, d) for c, d in pairs])
    fs = [s.f for s in problem.subproblems]
    assert len({f._key for f in fs}) == 1
    for f in fs:
        assert_tapes_are_own(f)
    jac = [f._compiled_jacobian() for f in fs]
    assert len({t.key for t in jac}) == 3
    assert jac[3].code is jac[0].code
    assert jac[1].code is not jac[0].code and jac[2].code is not jac[0].code


def test_a_representative_whose_derivation_raises_leaves_the_others_their_own():
    # d/dx c**x folds log(c), which raises for c = -2 only
    problem = SeparableProblem(
        [Subproblem(VectorFunction([ex.const(c) ** var(0) + ex.square(var(1))], 2))
         for c in (-2.0, 3.0, 0.5)]
    )
    fs = [s.f for s in problem.subproblems]
    x = np.array([0.5, 1.0])
    for f in fs[1:]:  # the first use is a sibling's
        assert_same(ex.gradient(f, x), ref_gradient(f, x))
        assert_tapes_are_own(f)
    got = _raised(ex.gradient, fs[0], x)
    want = _raised(ex.gradient, VectorFunction(fs[0].outputs, 2), x)
    assert got is not None and str(got) == str(want)
    assert all(f._structure is None for f in fs)


def log_block(c):
    return Subproblem(VectorFunction([ex.log(var(0) - c) * ex.square(var(1))], 2))


def test_a_shared_tape_raises_with_the_blocks_own_node():
    consts = (0.5, 1.5, 2.5)
    problem = SeparableProblem([log_block(c) for c in consts])
    fs = [s.f for s in problem.subproblems]
    x = np.array([1.0, 2.0])  # outside the domain of the second and third blocks
    for f in fs[1:]:
        assert f._compiled_outputs().own is not None
        alone = VectorFunction(f.outputs, 2)
        got, want = _raised(ex.evaluate, f, x), _raised(ex.evaluate, alone, x)
        assert got.node is want.node is f.outputs[0].args[0]
        assert str(got) == str(want)
        for fn in (ex.gradient, ex.jacobian):
            got, want = _raised(fn, f, x), _raised(fn, alone, x)
            assert got.node == want.node and str(got) == str(want)
            assert got.node != _raised(fn, VectorFunction(fs[0].outputs, 2), [0.0, 2.0]).node
    # and through the lane tapes of the group
    (group,) = group_blocks(problem.subproblems)
    errors = {}
    group.eval_point(np.array([x, x, x]), np.zeros((3, 0)), np.arange(3), errors)
    assert sorted(errors) == [1, 2]
    for k in (1, 2):
        want = _raised(ex.gradient, VectorFunction(fs[k].outputs, 2), x)
        assert errors[k].node == want.node and str(errors[k]) == str(want)


def test_two_problems_of_one_generator_share_nothing():
    problems = [coupled_qp(n_blocks=6, block_size=2) for _ in range(2)]
    tapes = [[t for s in pr.subproblems for t in local._root_sets(s)] for pr in problems]
    codes = [{id(t.code) for t in ts if t is not ex._EMPTY_TAPE} for ts in tapes]
    assert len(codes[0]) == len(codes[1]) == 2 and not codes[0] & codes[1]
    for pr in problems:
        for s in pr.subproblems:
            s.f._compiled_outputs()
            # both sets compiled: the functions let go of their structure
            assert s.f._structure is None


def test_a_function_is_linked_once():
    blocks = [log_block(c) for c in (0.5, 1.5, 2.5)]
    first = SeparableProblem(blocks)
    shared = blocks[0].f._structure
    assert shared is not None and all(b.f._structure is shared for b in blocks)
    # a second problem over the same functions leaves them where they are
    SeparableProblem(blocks[1:] + [log_block(3.5)])
    assert all(b.f._structure is shared for b in blocks)
    for b in first.subproblems:
        assert_tapes_are_own(b.f)


def test_concurrent_first_use_of_one_structure_matches_alone():
    # every thread compiles through the one structure its blocks share
    consts = [0.5 + 0.25 * k for k in range(12)]
    problem = SeparableProblem([log_block(c) for c in consts])
    x = np.array([4.0, -0.5])
    results = [None] * len(consts)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(k):
            s = problem.subproblems[k]
            results[k] = (ex.evaluate(s.f, x), ex.jacobian(s.f, x),
                          ex.lagrangian_hessian(s.f, s.g, s.h, x, None, [], []))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(consts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    empty = VectorFunction([], 2)
    for got, c in zip(results, consts):
        alone = log_block(c).f
        want = (ex.evaluate(alone, x), ex.jacobian(alone, x),
                ex.lagrangian_hessian(alone, empty, empty, x, None, [], []))
        for a, b in zip(got, want):
            assert_same(a, b)
    for s in problem.subproblems:
        assert_tapes_are_own(s.f)


# -- generated programs ----------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def interpret(tape, x, p):
    """The reference the generated programs must equal: ``tape``'s
    instructions run one at a time, a DomainEvalError naming the node of
    the instruction that raised it."""
    reg = list(tape.init)
    xs, ps = x.tolist(), p.tolist()
    for r, i in tape.x_loads:
        reg[r] = xs[i]
    for r, i in tape.p_loads:
        reg[r] = ps[i]
    for fn, dst, a, b, node in tape.code:
        try:
            reg[dst] = fn(reg[a]) if b < 0 else fn(reg[a], reg[b])
        except ex.DomainEvalError as err:
            err.node = node
            raise
    out = tape.base.copy()
    out[tape.out_pos] = [reg[r] for r in tape.out_reg]
    return out


def own_tape(t):
    """The tape the block of ``t`` compiles from its own graphs: ``t`` when
    it was compiled so, else a fresh compile of its function's root set."""
    if type(t.own) is not tuple:
        return t if t.own is None else t.own
    outputs, n_x, n_p, which = t.own
    return ex._compile_sets(VectorFunction(outputs, n_x, n_p), (which,))[0]


def outcome(run, *args):
    """(result, None), or (None, the DomainEvalError ``run`` raised)."""
    try:
        return run(*args), None
    except ex.DomainEvalError as err:
        return None, err


def assert_same_error(got, want, alike):
    """Equal messages, and the same node: the very node where the two
    tapes were compiled from one graph (``alike``), else an equal one."""
    assert got is not None and str(got) == str(want)
    assert got.node is want.node if alike else got.node == want.node


def generated_problems(name):
    """The problems of a benchmark workload at seed 1, or an example's."""
    from test_driver_reference import interleaved_chain
    from test_sensitivity_reference import disc_chain

    examples = {"tutorial": tutorial, "ocp_chain": ocp_chain, "disc_chain": disc_chain,
                "interleaved_chain": interleaved_chain}
    if name in examples:
        return [examples[name]()]
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(BENCH))
    return WORKLOADS[name].build(1).problems()


EDGES = (0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, np.nan)


def edge_points(n, z0, rng):
    """Random points near z0, every entry at one edge value, and single
    entries at each edge value in a random point."""
    points = [z0 + rng.standard_normal(n) for _ in range(2)]
    for v in EDGES:
        points.append(np.full(n, v))
        x = z0 + rng.standard_normal(n)
        x[rng.integers(n)] = v
        points.append(x)
    return points


@pytest.mark.parametrize("name", ["mpc-chain", "qp-wide", "sensor-net", "admm-chain",
                                  "tutorial", "ocp_chain", "disc_chain",
                                  "interleaved_chain"])
def test_generated_programs_equal_the_instruction_loop(name):
    # every root set of every block, alone and in its lockstep group, at
    # random points and at +-0, +-inf, the ends of the floats and nan; the
    # lane runs leave the sign of a nan open, as their ufuncs do
    from test_lane_stacking import same_or_nan

    rng = np.random.default_rng(7)
    n_runs = 0
    for problem in generated_problems(name):
        subs, params = problem.subproblems, problem.parameters
        points = [edge_points(s.n_x, s.z0, rng) for s in subs]
        want = {}  # (block, root set, point) -> (values, error)
        for i, (s, p) in enumerate(zip(subs, params)):
            p = np.asarray(p, dtype=float)
            for j, t in enumerate(local._root_sets(s)):
                if t is None:
                    continue
                ref = own_tape(t)
                for k, x in enumerate(points[i]):
                    want[i, j, k] = outcome(interpret, ref, x, p)
                    got = outcome(t.run, x, p)
                    if want[i, j, k][1] is None:
                        assert got[0].tobytes() == want[i, j, k][0].tobytes()
                    else:
                        assert_same_error(got[1], want[i, j, k][1], t.own is None)
                    n_runs += 1
        for group in group_blocks(subs):
            P = np.array([np.asarray(params[i], dtype=float) for i in group.blocks])
            P = P.reshape(len(group), -1)
            for j, lane in enumerate(group.lane):
                if lane is None:
                    continue
                for k in range(len(EDGES) * 2 + 2):
                    X = np.array([points[i][k] for i in group.blocks])
                    errors = {}
                    with np.errstate(all="ignore"):
                        got = lane.run(X, P, np.arange(len(group)), errors)
                    for r, i in enumerate(group.blocks):
                        values, err = want[i, j, k]
                        if err is None:
                            assert r not in errors and same_or_nan(got[r], values)
                        else:
                            assert_same_error(errors[r], err, lane.tapes[r].own is None)
    assert n_runs > 100


def failing_block(op, c):
    """A block whose one output leaves the domain of ``op`` at x0 = c - 1
    (log, sqrt, pow), x0 = c (log, div) or x0 = inf (sin, cos)."""
    x0, x1 = var(0), var(1)
    e = {"log": ex.log(x0 - c), "sqrt": ex.sqrt(x0 - c), "div": x1 / (x0 - c),
         "pow": (x0 - c) ** 1.5, "sin": ex.sin(x0 * c), "cos": ex.cos(x0 * c)}[op]
    return Subproblem(VectorFunction([e * ex.square(x1) + x1], 2))


@pytest.mark.parametrize("op", ["log", "sqrt", "div", "pow", "sin", "cos"])
def test_each_operators_error_names_the_walks_node(op):
    # own tapes, tapes shared within a problem, and lane runs of both: the
    # node and message of the reference walk of the block's own graphs
    consts = (0.5, 1.5, 2.5)
    problem = SeparableProblem([failing_block(op, c) for c in consts])
    shared = [s.f for s in problem.subproblems]
    alone = [VectorFunction(f.outputs, 2) for f in shared]
    assert all(f._compiled_outputs().own is not None for f in shared[1:])
    n_raised = 0
    for x0 in (-0.5, 0.5, 1.5, np.inf):
        X = np.array([[x0, 0.75]] * len(consts))
        for fun, ref in ((ex.evaluate, ref_evaluate), (ex.jacobian, ref_jacobian)):
            for fs in (alone, shared):
                for f, x in zip(fs, X):
                    want = _raised(ref, f, x)
                    got = _raised(fun, f, x)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert_same_error(got, want, fun is ex.evaluate)
                        n_raised += 1
                tapes = [f._compiled_outputs() if fun is ex.evaluate
                         else f._compiled_jacobian() for f in fs]
                errors = {}
                with np.errstate(all="ignore"):
                    ex._LaneTape(tapes).run(X, np.zeros((3, 0)), np.arange(3), errors)
                for k, (f, x) in enumerate(zip(fs, X)):
                    want = _raised(ref, f, x)
                    assert (k in errors) == (want is not None)
                    if want is not None:
                        assert_same_error(errors[k], want, fun is ex.evaluate)
    assert n_raised >= 6


def test_two_problems_of_one_generator_share_their_programs():
    # one program per key, each problem's results from its own constants
    problems = [coupled_qp(seed=seed, n_blocks=6, block_size=2) for seed in (1, 2)]
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 2))
    P = np.zeros((6, 0))
    runs = []
    for problem in problems:
        tapes = [local._root_sets(s) for s in problem.subproblems]
        (group,) = group_blocks(problem.subproblems)
        lanes = [lane for lane in group.lane if lane is not None and not lane.constant]
        assert lanes
        for lane in lanes:
            got = lane.run(X, P, np.arange(6), {})
            for k, t in enumerate(lane.tapes):
                assert got[k].tobytes() == interpret(t, X[k], P[k]).tobytes()
                assert t.run(X[k], P[k]).tobytes() == got[k].tobytes()
        runs.append((tapes, lanes, [lane.run(X, P, np.arange(6), {}) for lane in lanes]))
    (tapes_a, lanes_a, got_a), (tapes_b, lanes_b, got_b) = runs
    for row_a, row_b in zip(tapes_a, tapes_b):
        for a, b in zip(row_a, row_b):
            if a is not None and a.out_reg:
                assert a.programs is not b.programs and a.code is not b.code
                assert a.programs.scalar is b.programs.scalar
    for a, b, va, vb in zip(lanes_a, lanes_b, got_a, got_b):
        assert a.waves.run is b.waves.run and a.waves.batches is b.waves.batches
        assert a.waves.init.tobytes() != b.waves.init.tobytes()
        assert va.tobytes() != vb.tobytes()


def test_programs_past_the_bound_are_dropped_and_made_again():
    # more keys than either table holds: each tape keeps the programs it
    # took, a key dropped is generated again, and every run stays exact
    bound = ex._scalar_program.cache_info().maxsize
    assert bound == ex._wavefronts.cache_info().maxsize and bound >= 16
    n = bound + 8

    def pair(i):
        return [VectorFunction([ex.sin(var(i)) * c + var(0)], n) for c in (0.5, -2.0)]

    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, n))
    P = np.zeros((2, 0))
    first = None
    for i in range(n):
        tapes = [f._compiled_outputs() for f in pair(i)]
        lane = ex._LaneTape(tapes)
        got = lane.run(X, P, np.arange(2), {})
        for k, t in enumerate(tapes):
            want = interpret(t, X[k], P[k])
            assert got[k].tobytes() == want.tobytes() == t.run(X[k], P[k]).tobytes()
        if first is None:
            first = tapes, lane
    assert ex._scalar_program.cache_info().currsize == bound
    assert ex._wavefronts.cache_info().currsize == bound
    again = [f._compiled_outputs() for f in pair(0)]
    lane = ex._LaneTape(again)
    got = lane.run(X, P, np.arange(2), {})
    old_tapes, old_lane = first
    assert lane.waves.run is not old_lane.waves.run
    assert got.tobytes() == old_lane.run(X, P, np.arange(2), {}).tobytes()
    for k, (t, old) in enumerate(zip(again, old_tapes)):
        assert t.run(X[k], P[k]).tobytes() == old.run(X[k], P[k]).tobytes()
        assert t.programs.scalar is not old.programs.scalar


def test_a_tape_of_5000_instructions_compiles_and_runs():
    def chain(c):
        e = var(0)
        for _ in range(1700):
            e = ex.sin(e) + var(1) * c
        return VectorFunction([e, e * var(0)], 2)

    tapes = [chain(c)._compiled_outputs() for c in (0.5, -1.25, 2.0)]
    assert len(tapes[0].code) >= 5000
    X = np.array([[0.3, -0.7], [1.5, 0.25], [-2.0, 1.0]])
    P = np.zeros((3, 0))
    got = ex._LaneTape(tapes).run(X, P, np.arange(3), {})
    for k, t in enumerate(tapes):
        want = interpret(t, X[k], P[k])
        assert t.run(X[k], P[k]).tobytes() == want.tobytes() == got[k].tobytes()


def test_concurrent_fills_of_one_key_match_the_instruction_loop():
    # threads compile and first run tapes of a few keys at once, each of
    # its own functions, into emptied tables
    consts = [(0.75 + 0.1 * k, -0.4 - 0.05 * k) for k in range(16)]
    funs = [lane_functions(1 + k % 3, c) for k, c in enumerate(consts)]
    rng = np.random.default_rng(6)
    X = rng.uniform(-1.5, 1.5, (2, 3))
    P = rng.uniform(-1.5, 1.5, (2, 2))
    results = [None] * len(funs)
    ex._scalar_program.cache_clear()
    ex._wavefronts.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(k):
            sets = list(zip(*map(root_sets, funs[k])))
            results[k] = [
                (ex._LaneTape(list(ts)).run(X, P, np.arange(2), {}),
                 [t.run(X[i], P[i]) for i, t in enumerate(ts)])
                for ts in sets if ts[0] is not None
            ]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(funs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert ex._scalar_program.cache_info().currsize >= 3
    for k, group in enumerate(funs):
        sets = [ts for ts in zip(*map(root_sets, group)) if ts[0] is not None]
        assert len(results[k]) == len(sets)
        for (lane, alone), ts in zip(results[k], sets):
            for i, t in enumerate(ts):
                want = interpret(t, X[i], P[i])
                assert lane[i].tobytes() == alone[i].tobytes() == want.tobytes()
