"""Compiled tapes against a reference walker: equal values, errors, no aliasing.

The reference below evaluates the symbolic derivative graphs directly, with a
post-order walk and an id()-keyed memo, and uses the same per-operator
functions as the tapes.  Every entry point must return arrays equal to it,
raise DomainEvalError at the same inputs naming the same node, and hand out
a fresh array on every call.
"""

import sys
import threading

import numpy as np
import pytest

from aladin import expr as ex
from aladin.examples_lib import coupled_qp, ocp_chain, tutorial
from aladin import local
from aladin.expr import Expression, VectorFunction, param, var
from aladin.local import group_blocks
from aladin.problem import Subproblem


# -- reference ---------------------------------------------------------------

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
                memo[key] = ex._apply_unary(kind, memo[id(node.args[0])], node)
            else:
                memo[key] = ex._apply_binary(
                    kind, memo[id(node.args[0])], memo[id(node.args[1])], node
                )
    return memo


def _args(fun, x, p):
    x = np.asarray(x, dtype=float)
    p = np.zeros(fun.n_p) if p is None else np.asarray(p, dtype=float)
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
    groups = group_blocks(subs)
    assert [g.blocks for g in groups] == [(0, 1, 4), (2,), (3,)]


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
