"""Build a few named graphs, push them through the graph6 codec, and
check the round trip is the identity."""

from fanfree import (circulant_graph, cycle_graph, graph6_decode, graph6_encode,
                     make_fan, make_split, path_graph)

SAMPLES = [
    ("P5", path_graph(5)),
    ("C6", cycle_graph(6)),
    ("F2", make_fan(2)),
    ("S_{8,2}", make_split(8, 2)),
    ("S_{12,3}", make_split(12, 3)),
    ("C_9(1,2)", circulant_graph(9, (1, 2))),
]


def main():
    width = max(len(name) for name, _ in SAMPLES)
    for name, g in SAMPLES:
        code = graph6_encode(g)
        back = graph6_decode(code)
        assert back == g, name
        print(f"{name:<{width}}  n={g.n:>2}  e={g.edge_count():>2}  {code}")
    print("round trip ok for", len(SAMPLES), "graphs")


if __name__ == "__main__":
    main()
