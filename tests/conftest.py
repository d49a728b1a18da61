import random

import pytest

from nspg.harness import default_catalog, resolve_catalog, run_catalog
from nspg.power_graphs import nsb_power_graph, power_graph
from nspg.subgroups import quotient
from oracles import random_graph


@pytest.fixture(scope="session")
def catalog_pairs():
    return resolve_catalog(default_catalog())


@pytest.fixture(scope="session")
def default_report():
    return run_catalog(default_catalog())


@pytest.fixture(scope="session")
def small_graphs(catalog_pairs):
    """The brute-force oracles' graphs: every distinct catalog graph of at most
    10 vertices (each Gamma_H(G) and each quotient's power graph), then 100
    seeded random graphs of 4 to 10 vertices."""
    graphs = {}
    for G, H in catalog_pairs:
        for g in (nsb_power_graph(G, H).graph, power_graph(quotient(G, H).group)):
            if g.vertex_count <= 10:
                graphs[(g.vertex_labels, g.rows)] = g
    rng = random.Random(19520810)
    randoms = [
        random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        for _ in range(100)
    ]
    return list(graphs.values()), randoms
