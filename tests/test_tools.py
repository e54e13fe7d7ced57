"""The scripts under tools/ that read the walk and the benchmark records."""

import importlib.util
import os

from fanfree.enumeration import count_classes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_walk_counts_accepts_every_class():
    counts = _tool("walk_counts").walk_counts(7)
    assert list(counts) == list(range(2, 8))
    for order, level in counts.items():
        assert level["accepted"] == count_classes(order), order
        assert level["hook_calls"] == 0, order
    # one tree per parent: the root's and each splitting child's searched,
    # the others merged from their parent's
    assert {order: (level["searched_trees"], level["merged_trees"])
            for order, level in counts.items()} == {
        2: (1, 0), 3: (0, 2), 4: (1, 3), 5: (3, 8), 6: (11, 23), 7: (49, 107)}
    assert sum(level["searched_trees"] + level["merged_trees"]
               for level in counts.values()) == sum(count_classes(j) for j in range(1, 7))


def test_walk_counts_counts_the_fan_hook():
    # certify --n 8 --k 2 walks 2,290 fan-free classes of order 8; the hook
    # sees each child the pruned pass leaves, 3,463 in all
    counts = _tool("walk_counts").walk_counts(8, 2)
    assert counts[8]["accepted"] == 2290
    assert sum(level["hook_calls"] for level in counts.values()) == 3463
    assert all(level["tested"] <= level["hook_calls"] for level in counts.values())


def test_bench_pairs_summarises_every_traced_run():
    bench = _tool("bench_pairs")
    traced = {side: [{"x.busy_s": {"unit": "s", "value": v}} for v in values]
              for side, values in (("parent", [3.0, 1.0, 2.0]), ("change", [1.5, 0.5, 1.0]))}
    row = bench.layer_rows(traced)["x.busy_s"]
    assert row["unit"] == "s"
    assert row["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert row["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.25}
    assert row["parent_runs"] == [3.0, 1.0, 2.0]
    assert row["change_runs"] == [1.5, 0.5, 1.0]
