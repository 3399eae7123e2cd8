"""Routes on the adjacency-dict network against networkx as the oracle.

networkx is a test-only dependency.  Every ordered pair of endpoints on
each topology must get the same node sequence as ``nx.shortest_path``
(the fabrics built here have one fewest-hop route per pair), and a pair
without a route, or naming an unknown node, must fail in both.
"""

import itertools

import pytest

from repro.cluster import Cluster, ClusterSpec, Network
from repro.sim import Environment, RngRegistry

nx = pytest.importorskip("networkx")


def _twin(nodes, edges):
    """The same topology as a :class:`Network` and an ``nx.Graph``."""
    net = Network(Environment())
    graph = nx.Graph()
    for n in nodes:
        net.add_node(n)
        graph.add_node(n)
    for a, b in edges:
        net.add_link(a, b)
        graph.add_edge(a, b)
    return net, graph


def _cluster_twin(n_compute):
    cluster = Cluster(Environment(), RngRegistry(1),
                      ClusterSpec(n_compute_nodes=n_compute))
    graph = nx.Graph()
    graph.add_nodes_from(n.name for n in cluster.all_nodes)
    graph.add_edges_from((n.name, Cluster.HEAD_NAME)
                         for n in cluster.compute_nodes)
    graph.add_edge(Cluster.HEAD_NAME, Cluster.ANALYSIS_NAME)
    return cluster.network, graph


TOPOLOGIES = [
    pytest.param(*_cluster_twin(1), id="star-1"),
    pytest.param(*_cluster_twin(2), id="star-2"),
    pytest.param(*_cluster_twin(32), id="star-32"),
    pytest.param(*_twin("abc", [("a", "b"), ("b", "c")]), id="chain"),
    pytest.param(*_twin(["a", "island"], []), id="island"),
]


@pytest.mark.parametrize("net,graph", TOPOLOGIES)
def test_every_route_matches_networkx(net, graph):
    for src, dst in itertools.product(graph.nodes, repeat=2):
        try:
            want = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath:
            with pytest.raises(ValueError, match="no route"):
                net.path(src, dst)
            continue
        assert net.path(src, dst) == want, (src, dst)
        links = net.links_on_path(src, dst)
        assert links == [net.link_between(u, v)
                         for u, v in zip(want, want[1:])]


@pytest.mark.parametrize("src,dst", [("a", "ghost"), ("ghost", "a"),
                                     ("ghost", "ghost")])
def test_unknown_node_fails_like_networkx(src, dst):
    net, graph = _twin("ab", [("a", "b")])
    with pytest.raises(nx.NodeNotFound):
        nx.shortest_path(graph, src, dst)
    with pytest.raises(ValueError, match="no route"):
        net.path(src, dst)


def test_relinking_replaces_the_link_like_networkx():
    net, graph = _twin("ab", [("a", "b")])
    first = net.link_between("a", "b")
    second = net.add_link("b", "a", latency_s=1e-3)
    assert second is not first
    assert net.link_between("a", "b") is second
    assert net.links_on_path("a", "b") == [second]
    assert net.path("b", "a") == nx.shortest_path(graph, "b", "a")
