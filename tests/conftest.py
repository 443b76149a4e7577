import itertools
import random

import pytest

from totalcolour import Graph, make_graph


def random_graph(rng: random.Random, max_n: int = 8, p: float = 0.4) -> Graph:
    n = rng.randint(1, max_n)
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return make_graph(n, edges)


def random_bipartite(rng: random.Random, max_part: int = 15, p: float = 0.4):
    """Random bipartite graph plus its part sizes (parts 0..a-1 and a..a+b-1)."""
    a = rng.randint(1, max_part)
    b = rng.randint(1, max_part)
    edges = [
        (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
    ]
    return make_graph(a + b, edges), a, b


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.fixture
def malformed_json_files(tmp_path):
    """Files that must read as a parse error, not crash the decoder."""
    files = {
        "bad.json": b"{not json",
        "utf16.json": b"\xff\xfe{\x00}\x00",  # not UTF-8
        "deep.json": b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return [tmp_path / name for name in files]
