"""The benchmark's workloads: fixed pools of heckekit CLI jobs.

Each job is the argv list given to ``heckekit.cli.main``; its key is the
argv joined by spaces.  Paths are relative to the repository root, which is
the worker's working directory.  See README.md for why each pool exists.
"""

from __future__ import annotations

import random

FIXTURES = "src/heckekit/fixtures/"
P_CHECKS = "P2,P3,P4,P5,P6,P7,P8,P15"

POOLS: dict[str, list[list[str]]] = {
    # KL tables that go through the structure constants (KLData.hconst).
    "kl-afn": [
        ["kl", "--type", "G2", "--rank", "2", "--weights", "1,2", "--emit", "afn"],
        ["kl", "--type", "G2", "--rank", "2", "--weights", "1,1", "--emit", "afn"],
        ["kl", "--type", "G2", "--rank", "2", "--weights", "2,1", "--emit", "afn"],
        ["kl", "--type", "A", "--rank", "3", "--weights", "1", "--emit", "afn"],
        ["kl", "--type", "B", "--rank", "3", "--weights", "1,2", "--emit", "afn"],
        ["kl", "--type", "B", "--rank", "3", "--weights", "1,1", "--emit", "afn"],
        ["kl", "--type", "B", "--rank", "3", "--weights", "2,1", "--emit", "afn"],
        ["kl", "--type", "B", "--rank", "3", "--weights", "1,3", "--emit", "dinv"],
        ["kl", "--type", "B", "--rank", "3", "--weights", "1,2", "--check", P_CHECKS],
        ["kl", "--type", "G2", "--rank", "2", "--weights", "1,2", "--emit", "phimatrix"],
        ["kl", "--type", "G2", "--rank", "2", "--weights", "1,1", "--emit", "jring"],
    ],
    # Wide c-basis output with no structure constants.
    "kl-cbasis": [
        ["kl", "--type", "A", "--rank", "4", "--weights", "1", "--emit", "cbasis"],
        ["kl", "--type", "D", "--rank", "4", "--weights", "1", "--emit", "cbasis"],
        ["kl", "--type", "B", "--rank", "4", "--weights", "1,4", "--emit", "cbasis"],
    ],
    # Schur invariants, crystals, basic sets and verification: no KL work.
    "reps-tables": [
        ["schur", "--type", "B", "--n", "8", "--a", "1", "--b", "2"],
        ["schur", "--type", "B", "--n", "8", "--a", "1", "--b", "0"],
        ["schur", "--type", "B", "--n", "7", "--a", "2", "--b", "3"],
        ["schur", "--type", "B", "--a", "1", "--b", "2", "--bipartition", "[[2,1],[1]]"],
        ["schur", "--type", "A", "--n", "12", "--a", "1"],
        ["schur", "--type", "G2", "--a", "1", "--b", "2"],
        ["schur", "--type", "F4", "--a", "1", "--b", "3"],
        ["crystal", "--l", "4", "--r", "3", "--u", "0,1,3", "--n", "18"],
        ["crystal", "--l", "3", "--r", "2", "--u", "0,1", "--n", "10", "--order", "ariki"],
        ["crystal", "--l", "3", "--r", "2", "--u", "0,1", "--n", "10", "--format", "dot"],
        ["basicset", "--type", "B", "--n", "18", "--a", "1", "--b", "1", "--xi-order", "6"],
        ["basicset", "--type", "D", "--n", "18", "--xi-order", "6"],
        ["basicset", "--type", "A", "--n", "14", "--a", "1", "--xi-order", "3"],
        ["verify-decomp", FIXTURES + "table3_b2.json"],
        ["verify-decomp", FIXTURES + "g2_char2.json"],
        ["basicset", "--type", "B", "--n", "18", "--a", "1", "--b", "2", "--xi-order", "6"],
    ],
}


def key(argv: list[str]) -> str:
    return " ".join(argv)


def pass_orders(workload: str, seed: int):
    """Endless job orders, one per pass: each a seeded permutation of the pool."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(POOLS[workload])
        rng.shuffle(order)
        yield order
