"""Per-level counts of the canonicity work of the orderly walk.

    python3 tools/walk_counts.py --n 8 [--k K] [--json]

Runs the walk of ``fanfree enumerate --n N``, or with --k K the
fan-free walk that ``fanfree certify --n N --k K`` scans, and prints one
row per child order:

- tested: children that reach ``_canonical_child``, the leaves that the
  parent's pruned pass over the neighbour sets leaves and the hook
  passes;
- packed_rejects: tested children whose new vertex beats the identity
  along a complete prefix of the parent's tree, an automorphism of the
  parent, rejected before their twin masks are derived;
- tie_rejects: children a search from one of their ties rejects;
- accepted: canonical children;
- hook_calls: calls of the walk's hook (the fan test with --k) on the
  children, which see only the leaves of the pruned pass;
- searched_trees, merged_trees, prefixes: the parents' trees, searched
  by ``_prefix_tree`` (the root's, and those of the classes that split a
  twin class of their own parent) or merged by ``_merged_tree`` from
  their own parent's tree, and the equal prefixes both kinds hold;
- engine_calls, tie_starts: ``_greater_order`` passes of the canonicity
  tests, and the start prefixes handed to them.

The counts come from wrappers around the private functions of
``fanfree.enumeration``, installed from here, so the package carries no
counters.  --json prints the same counts as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanfree import enumeration  # noqa: E402
from fanfree.matching import ForbiddenPattern  # noqa: E402
from fanfree.search import _pattern_free  # noqa: E402

COLUMNS = ("tested", "packed_rejects", "tie_rejects", "accepted", "hook_calls",
           "searched_trees", "merged_trees", "prefixes", "engine_calls", "tie_starts")


def walk_counts(n: int, k: int | None = None) -> dict[int, Counter]:
    """The counts of one walk to order ``n``, keyed by child order."""
    counts: dict[int, Counter] = defaultdict(Counter)
    originals = {name: getattr(enumeration, name) for name in
                 ("_children", "_canonical_child", "_child_twins", "_prefix_tree",
                  "_merged_tree", "_greater_order")}

    def children(parent, twins, tree, keep=None, grow=False):
        def hook(child):
            counts[child.n]["hook_calls"] += 1
            return keep(child)
        return originals["_children"](parent, twins, tree, hook if keep else None, grow)

    def canonical_child(rows, twins, tree, child, g, mine, grow):
        counts[child.n]["tested"] += 1
        out = originals["_canonical_child"](rows, twins, tree, child, g, mine, grow)
        counts[child.n]["accepted"] += out is not None
        return out

    def child_twins(rows, twins, s):
        counts[len(rows) + 1]["twin_masks"] += 1
        return originals["_child_twins"](rows, twins, s)

    def tree_counter(name, column):
        def built(rows, *args):
            tree = originals[name](rows, *args)
            level = counts[len(rows) + 1]
            level[column] += 1
            level["prefixes"] += len(tree.prefixes)
            return tree
        return built

    def greater_order(adj, size, twins, starts, record=None):
        starts = list(starts)
        # a tree search starts from the empty prefix, a canonicity test
        # from ties that each end with the new vertex
        if starts != [()]:
            counts[size]["engine_calls"] += 1
            counts[size]["tie_starts"] += len(starts)
        return originals["_greater_order"](adj, size, twins, starts, record)

    wrappers = {"_children": children, "_canonical_child": canonical_child,
                "_child_twins": child_twins,
                "_prefix_tree": tree_counter("_prefix_tree", "searched_trees"),
                "_merged_tree": tree_counter("_merged_tree", "merged_trees"),
                "_greater_order": greater_order}
    for name, wrapper in wrappers.items():
        setattr(enumeration, name, wrapper)
    try:
        if k is None:
            graphs = enumeration.enumerate_graphs(enumeration.EnumerationTask(n))
        else:
            graphs = _pattern_free(n, ForbiddenPattern("fan", k), None)
        for _ in graphs:
            pass
    finally:
        for name, original in originals.items():
            setattr(enumeration, name, original)
    for level in counts.values():
        level["packed_rejects"] = level["tested"] - level["twin_masks"]
        level["tie_rejects"] = level["twin_masks"] - level["accepted"]
    return dict(sorted(counts.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, help="walk only the F_k-free classes")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    counts = walk_counts(args.n, args.k)
    levels = {order: {c: level[c] for c in COLUMNS} for order, level in counts.items()}
    total = {c: sum(level[c] for level in levels.values()) for c in COLUMNS}
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "levels": levels, "total": total}))
        return 0
    print("order " + " ".join(f"{c:>14}" for c in COLUMNS))
    for order, level in levels.items():
        print(f"{order:5} " + " ".join(f"{level[c]:14}" for c in COLUMNS))
    print("total " + " ".join(f"{total[c]:14}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
