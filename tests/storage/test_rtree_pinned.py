"""Pinned R-tree behaviour: tree shape, search results and visit counts.

The expected digests below were recorded from the R-tree that re-tightened
every ancestor entry on each insert, before MBR maintenance became
incremental.  Each digest covers the whole tree shape at checkpoints (per
node: leaf flag, every entry MBR's floats via ``repr``, payload order), the
result list of every search in the order ``search`` yields it, and
``nodes_visited`` after every search.  ``nodes_visited`` is charged to the
simulated cost model, so a change to it moves simulated figures.
"""

import hashlib
import random

import pytest

from repro.adm import Circle, Point, Rectangle
from repro.storage import RTree
from repro.workloads import PaperWorkload, WorkloadScale

SCRIPT_DIGESTS = {
    4: "e4ce18d493fb11e663dcaaa45f9ebcc75e914d8f69a038fee3fc4f3c74c16989",
    8: "7b7baccab214d18da25f7d9467a315fe259fe37d885e4cd99a6aeb6f1f295cfe",
    16: "9d728d419bc464fba4bfd8e447ae12aeb618996d4220e0c478e226472f971e03",
}
PERSONS_DIGEST = "7a50a74e42102cd3f89cdc093899308f6467a26f7f52ea50368fda75be386cfe"


def _shape(tree: RTree, out) -> None:
    stack = [tree._root]
    while stack:
        node = stack.pop()
        out.update(b"L" if node.is_leaf else b"I")
        for entry in node.entries:
            m = entry.mbr
            out.update(f"({m.x1!r},{m.y1!r},{m.x2!r},{m.y2!r})".encode())
            if node.is_leaf:
                out.update(repr(entry.payload).encode())
        out.update(b"|")
        if not node.is_leaf:
            stack.extend(entry.child for entry in reversed(node.entries))


def _search(tree: RTree, query, out) -> None:
    out.update(repr(list(tree.search(query))).encode())
    out.update(f"#{tree.nodes_visited}".encode())


def _value(rnd: random.Random):
    kind = rnd.randrange(3)
    x, y = rnd.uniform(0, 100), rnd.uniform(0, 100)
    if kind == 0:
        # a coarse grid makes duplicate points and tied enlargements common
        return Point(round(x, 0), round(y, 0))
    if kind == 1:
        return Rectangle(x, y, x + rnd.uniform(0, 8), y + rnd.uniform(0, 8))
    return Circle(Point(x, y), rnd.uniform(0, 5))


def _query(rnd: random.Random):
    x, y = rnd.uniform(-5, 100), rnd.uniform(-5, 100)
    kind = rnd.randrange(3)
    if kind == 0:
        return Point(round(x, 0), round(y, 0))
    if kind == 1:
        return Rectangle(x, y, x + rnd.uniform(0, 30), y + rnd.uniform(0, 30))
    return Circle(Point(x, y), rnd.uniform(0, 15))


def run_script(max_entries: int) -> str:
    """Insert, delete and search from one seed; digest everything seen."""
    rnd = random.Random(1000 + max_entries)
    tree = RTree(max_entries=max_entries)
    out = hashlib.sha256()
    live = []
    next_pk = 0
    for round_ in range(6):
        for _ in range(150):
            value = _value(rnd)
            tree.insert(value, next_pk)
            live.append((value, next_pk))
            next_pk += 1
            if rnd.random() < 0.1:
                _search(tree, _query(rnd), out)
        _shape(tree, out)
        # delete most of the live postings, so underfull nodes condense and
        # their orphans are reinserted
        for _ in range(len(live) * 2 // 3):
            value, pk = live.pop(rnd.randrange(len(live)))
            assert tree.delete(value, pk)
            if rnd.random() < 0.1:
                _search(tree, _query(rnd), out)
        assert not tree.delete(Point(-1.0, -1.0), -1)
        _shape(tree, out)
        for _ in range(20):
            _search(tree, _query(rnd), out)
        out.update(f"round{round_}:{len(tree)}".encode())
    return out.hexdigest()


@pytest.mark.parametrize("max_entries", sorted(SCRIPT_DIGESTS))
def test_script_digest(max_entries):
    assert run_script(max_entries) == SCRIPT_DIGESTS[max_entries]


def test_paper_workload_persons_build():
    workload = PaperWorkload(scale=WorkloadScale(persons=2_000), num_partitions=2)
    persons = workload.build_catalog(["Persons"])["Persons"]
    rnd = random.Random(3)
    out = hashlib.sha256()
    for index in persons.indexes["Persons_spatial"]:
        tree = index._rtree
        _shape(tree, out)
        for _ in range(50):
            _search(tree, _query(rnd), out)
    assert out.hexdigest() == PERSONS_DIGEST
