"""The max-flow kernel against the kernel it replaced (``dinic_reference``) and
a brute-force minimum cut, plus ``solve_exact`` and ``check_ncc`` answers with
the reference kernel swapped in."""

import signal
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import dinic_reference
import st_dinic_reference
from conftest import AddArcDinic, Network, brute_force_min_cut, st_max_flow
from netlasso import flow, solver
from netlasso.certify import NccQuery, check_ncc, verify_ncc_cut, verify_ncc_witnesses
from netlasso.flow import _Dinic
from netlasso.generate import (
    NoiseConfig,
    PlantedPartitionConfig,
    generate_planted_partition,
    noise_field,
    observe,
    paper_like_config,
)
from netlasso.graphs import clustered_signal
from netlasso.sampling import sample_boundary_aware
from netlasso.solver import solve_exact

capacities = st.one_of(st.integers(0, 10), st.integers(0, 2**80))


@st.composite
def kernel_instances(draw, max_nodes=10):
    """Node count, arcs (u, v, capacity, reverse capacity) and a source and sink.

    Parallel and antiparallel arcs, zero capacities and capacities up to 2^80
    all occur."""
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    arc = st.tuples(node, node, capacities, st.one_of(st.just(0), capacities))
    arcs = draw(st.lists(arc.filter(lambda a: a[0] != a[1]), max_size=4 * n))
    s = draw(node)
    t = draw(node.filter(lambda v: v != s))
    return n, arcs, s, t


def _expire(signum, frame):
    raise TimeoutError


def within(seconds, fn, *args):
    """fn(*args), failing instead of hanging the suite if it runs longer than
    ``seconds`` (a kernel that loops forever)."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except TimeoutError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    raise AssertionError(f"{fn.__qualname__} ran for more than {seconds} s")


class _Reference(dinic_reference._Dinic):
    """The reference kernel behind the live kernel's constructor and excess
    routing: ``route`` joins a source of its own (node n) to each node with
    excess and each node with a deficit to a sink (node n + 1), in node order,
    runs the reference's s-t max flow, reads the nodes the source reaches
    through positive residual capacity, and takes those arcs out again."""

    phases = 0  # the reference kernel does not count its phases

    def __init__(self, n, tails, heads, caps, back):
        super().__init__(n + 2)
        for arc in zip(tails, heads, caps, back):
            self.add_arc(*arc)

    def route(self, nodes, excess):
        s, t = self.n - 2, self.n - 1
        arcs = [self.add_arc(s, v, x) if x > 0 else self.add_arc(v, t, -x)
                for v in nodes if (x := excess[v])]
        self.max_flow(s, t)
        for e in arcs:  # what is left of the excess or the deficit
            v = self.head[e] if self.head[e + 1] == s else self.head[e + 1]
            excess[v] = self.cap[e] if excess[v] > 0 else -self.cap[e]
        seen = self.residual_reachable(s) - {s}
        for e in reversed(arcs):
            self.adj[self.head[e]].pop()
            self.adj[self.head[e + 1]].pop()
        if arcs:
            del self.head[arcs[0]:], self.cap[arcs[0]:]
        return sorted(seen)


def columns(arcs):
    """Tails, heads, capacities and reverse capacities of (u, v, c, r) arcs."""
    return [[arc[k] for arc in arcs] for k in range(4)]


def solved(kernel, n, arcs, s, t):
    """The kernel on the arcs, its maximum s-t flow, and the nodes s reaches."""
    net = kernel(n, *columns(arcs))
    # about a millisecond at most on 10 nodes
    return (net, *within(0.5, st_max_flow, net, s, t))


@settings(max_examples=300, deadline=None)
@given(kernel_instances())
def test_kernel_matches_reference_and_brute_force(instance):
    n, arcs, s, t = instance
    net, value, reached = solved(_Dinic, n, arcs, s, t)
    ref, ref_value, ref_reached = solved(_Reference, n, arcs, s, t)
    assert value == ref_value
    assert reached == ref_reached
    both_ways = [(u, v, c) for u, v, c, _ in arcs] + [(v, u, r) for u, v, _, r in arcs]
    assert value == brute_force_min_cut(Network(n, tuple(both_ways)), s, t, scale=1)
    # the residual capacities hold a flow of that value
    balance = [0] * n
    for k, (u, v, c, r) in enumerate(arcs):
        f = c - net.cap[2 * k]  # net flow u -> v
        assert -r <= f <= c and net.cap[2 * k + 1] == r + f
        balance[u] -= f
        balance[v] += f
    assert balance[t] == value == -balance[s]
    assert all(b == 0 for i, b in enumerate(balance) if i not in (s, t))
    assert (net.phases > 0) == (value > 0)


@settings(max_examples=300, deadline=None)
@given(kernel_instances())
def test_constructor_matches_sequential_add_arc(instance):
    n, arcs, _, _ = instance
    net = _Dinic(n, *columns(arcs))
    sequential = AddArcDinic(n)
    for arc in arcs:
        sequential.add_arc(*arc)
    assert (net.head, net.cap, net.adj) == (sequential.head, sequential.cap, sequential.adj)


@settings(max_examples=300, deadline=None)
@given(kernel_instances(), st.integers(2, 2**70))
def test_kernel_is_scale_equivariant(instance, c):
    # Every capacity times c scales the max flow and each residual capacity by
    # c and leaves the phases and the residual reach as they are, so a flow
    # solved at a coarse scale and multiplied out equals one solved at a fine one.
    n, arcs, s, t = instance
    net, value, reached = solved(_Dinic, n, arcs, s, t)
    big, big_value, big_reached = solved(
        _Dinic, n, [(u, v, c * x, c * r) for u, v, x, r in arcs], s, t
    )
    assert big_value == c * value
    assert big.cap == [c * x for x in net.cap]
    assert big.phases == net.phases
    assert big_reached == reached


excesses = st.one_of(st.integers(-10, 10), st.integers(-(2**80), 2**80))


def reaching(net, t):
    """The nodes with a path of positive residual capacity to t, t included."""
    seen = {t}
    grew = True
    while grew:
        grew = False
        for e, v in enumerate(net.head):
            u = net.head[e ^ 1]  # the tail of arc e
            if v in seen and u not in seen and net.cap[e] > 0:
                seen.add(u)
                grew = True
    return seen


@settings(max_examples=300, deadline=None)
@given(kernel_instances(), st.data())
def test_route_matches_st_kernel_with_terminal_arcs(instance, data):
    # The s-t kernel it replaced, on the same arc pairs with tails and heads
    # swapped plus, in node order, one arc from its source to each node with a
    # deficit and one to its sink from each node with excess (the excess
    # negated), runs the same phases and leaves the same residual capacities;
    # what is left on the terminal arcs is the excess left, and the nodes that
    # reach its sink are the ones route returns.
    n, arcs, _, _ = instance
    excess = data.draw(st.lists(excesses, min_size=n, max_size=n))
    tails, heads, caps, back = columns(arcs)
    terminal = [v for v in range(n) if excess[v]]
    s, t = n, n + 1
    ref = st_dinic_reference._Dinic(
        n + 2,
        heads + [s if excess[v] < 0 else v for v in terminal],
        tails + [v if excess[v] < 0 else t for v in terminal],
        caps + [abs(excess[v]) for v in terminal],
        back + [0] * len(terminal),
    )
    within(0.5, ref.max_flow, s, t)
    net = _Dinic(n, tails, heads, caps, back)
    left = list(excess)
    reached = within(0.5, net.route, range(n), left)
    m = 2 * len(arcs)
    assert net.cap == ref.cap[:m]
    assert net.phases == ref.phases
    assert left == [(1 if x > 0 else -1) * ref.cap[m + 2 * terminal.index(v)] if x else 0
                    for v, x in enumerate(excess)]
    assert set(reached) == reaching(ref, t) - {t}


def preloaded(n, arcs, excess, flows):
    """The kernel on the arcs with net flow flows[k] from u to v on arc pair k
    already in its residuals, and the excess that flow leaves."""
    net = _Dinic(n, *columns(arcs))
    left = list(excess)
    for k, ((u, v, _, _), f) in enumerate(zip(arcs, flows)):
        net.cap[2 * k] -= f
        net.cap[2 * k + 1] += f
        left[u] -= f
        left[v] += f
    return net, left


@settings(max_examples=300, deadline=None)
@given(kernel_instances(), st.data())
def test_route_from_any_flow_reaches_the_cold_cut(instance, data):
    # The warm-start lemma behind solve_exact. F(S) = cap(S -> S') - e0(S), with
    # e0 the excess at zero flow, is the same for every flow within the
    # capacities. Routed from any of them, the positive excess left is -min F
    # and what it reaches is the minimal minimizer of F.
    n, arcs, _, _ = instance
    excess = data.draw(st.lists(excesses, min_size=n, max_size=n))
    flows = [data.draw(st.integers(-r, c)) for _, _, c, r in arcs]
    cold, cold_left = preloaded(n, arcs, excess, [0] * len(arcs))
    warm, warm_left = preloaded(n, arcs, excess, flows)
    cold_cut, warm_cut = (within(0.5, net.route, range(n), left)
                          for net, left in ((cold, cold_left), (warm, warm_left)))
    assert sum(x for x in warm_left if x > 0) == sum(x for x in cold_left if x > 0)
    assert set(warm_cut) == set(cold_cut)
    # the residuals still hold a flow within the capacities that matches the excess
    balance = list(excess)
    for k, (u, v, c, r) in enumerate(arcs):
        f = c - warm.cap[2 * k]
        assert -r <= f <= c and warm.cap[2 * k + 1] == r + f
        balance[u] -= f
        balance[v] += f
    assert balance == warm_left


def minimal_minimizer(n, arcs, excess):
    """The intersection of all node sets S that minimize F(S) = cap(S -> S')
    - e0(S), with e0 the excess at zero flow, found by enumerating every S."""
    best = meet = None
    for mask in range(1 << n):
        inside = [mask >> v & 1 for v in range(n)]
        f = -sum(x for v, x in enumerate(excess) if inside[v])
        for u, v, c, r in arcs:
            f += c if inside[u] > inside[v] else r if inside[v] > inside[u] else 0
        if best is None or f < best:
            best, meet = f, mask
        elif f == best:
            meet &= mask
    return {v for v in range(n) if meet >> v & 1}


@settings(max_examples=300, deadline=None)
@given(kernel_instances(max_nodes=8), st.data())
def test_route_returns_the_minimal_minimum_cut(instance, data):
    # From zero flow and from any flow within the capacities, the set route
    # returns is the smallest minimizer of F, by enumeration.
    n, arcs, _, _ = instance
    excess = data.draw(st.lists(excesses, min_size=n, max_size=n))
    flows = [data.draw(st.integers(-r, c)) for _, _, c, r in arcs]
    expected = minimal_minimizer(n, arcs, excess)
    for start in ([0] * len(arcs), flows):
        net, left = preloaded(n, arcs, excess, start)
        assert set(within(0.5, net.route, range(n), left)) == expected


def test_phases_count_blocking_flows():
    # s=0, t=3: the direct arc 0 -> 3 is one phase, the path over 1 and 2 another
    net = _Dinic(4, [0, 1, 2, 0], [1, 2, 3, 3], [1] * 4, [0] * 4)
    assert st_max_flow(net, 0, 3)[0] == 2 and net.phases == 2
    assert st_max_flow(net, 0, 3)[0] == 0 and net.phases == 2


def with_reference_kernel(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(flow, "_Dinic", _Reference)
        m.setattr(solver, "_Dinic", _Reference)
        return fn(*args)


def preset(seed):
    g, partition = generate_planted_partition(paper_like_config(seed))
    return g, partition, sample_boundary_aware(g, partition, 15)


def noisy_observations(g, partition, nodes, seed):
    x_true = clustered_signal(partition, [float(c + 1) for c in range(partition.cluster_count)])
    return observe(x_true, nodes, noise_field(g.node_count, NoiseConfig("gaussian", 0.1, seed)))


def quiet_solve(g, obs, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_exact(g, obs, lam)


def assert_same_solve(monkeypatch, g, obs, lam):
    result = quiet_solve(g, obs, lam)
    reference = with_reference_kernel(monkeypatch, quiet_solve, g, obs, lam)
    assert result.x_hat.tobytes() == reference.x_hat.tobytes()
    assert result.cuts == reference.cuts


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("lam", [0.05, 1.0])
def test_solve_exact_matches_reference_kernel_on_preset(monkeypatch, seed, lam):
    g, partition, nodes = preset(seed)
    assert_same_solve(monkeypatch, g, noisy_observations(g, partition, nodes, seed), lam)


def test_solve_exact_matches_reference_kernel_at_n_1e3(monkeypatch):
    cfg = PlantedPartitionConfig((100,) * 10, 0.1, 5e-4, 1.0, 21)
    g, partition = generate_planted_partition(cfg)
    nodes = sample_boundary_aware(g, partition, 100)
    assert_same_solve(monkeypatch, g, noisy_observations(g, partition, nodes, 21), 0.05)


@pytest.mark.parametrize("seed", range(8))
def test_check_ncc_matches_reference_kernel_on_preset(monkeypatch, seed):
    g, partition, nodes = preset(seed)
    for K in (1.0, 5.0, 9.0, 10.0, 20.0):
        query = NccQuery(g, partition, nodes, K=K, L=1.0)
        cert = check_ncc(query)
        reference = with_reference_kernel(monkeypatch, check_ncc, query)
        assert (cert.verdict, cert.failed_bits) == (reference.verdict, reference.failed_bits)
        if cert.verdict == "holds":
            assert verify_ncc_witnesses(query, cert)  # its flows may differ from the reference's
        else:
            assert cert.cut.nodes == reference.cut.nodes
            assert verify_ncc_cut(query, cert)
