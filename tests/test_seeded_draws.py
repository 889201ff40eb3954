"""run draws a plain SeededRandom's picks inside its delivery loop and
asks any subclass for pick; both must give the same run, from the same
stream. This module needs only the standard library and the package,
so it also runs as a plain script where pytest is not installed:

    PYTHONPATH=src python tests/test_seeded_draws.py
"""

import random

from pulseforge import (
    SeededRandom,
    complete_binary_tree,
    new_simulation,
    random_asymmetric_tree,
    random_tree,
    run,
)


class ViaPick(SeededRandom):
    """A bare subclass, so run asks its inherited pick."""


class Widths(SeededRandom):
    """Asked for pick too; keeps the bit length of each enabled count."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = set()

    def pick(self, state, enabled):
        self.widths.add(len(enabled).bit_length())
        return super().pick(state, enabled)


def _instances():
    """(tree, algorithm, ids) for each algorithm; the enabled-edge count
    of every run crosses several powers of two, so the draw width
    changes within a run."""
    out = [(complete_binary_tree(r), "even", None) for r in (3, 5)]
    out += [(random_asymmetric_tree(n, s), "general", None)
            for n, s in ((24, 1), (70, 2))]
    for n, s in ((40, 3), (150, 4)):
        ids = list(range(1, n + 1))
        random.Random(s).shuffle(ids)
        out.append((random_tree(n, s), "stabilizing", ids))
    return out


def test_inline_draws_equal_the_runs_pick_makes():
    for k, (t, algorithm, ids) in enumerate(_instances()):
        state = new_simulation(t, algorithm, ids, record_trace=True)
        # A budget that ends the run early stops both mid-stream.
        for seed, budget in ((k, 10 ** 6), (100 + k, 10 ** 6), (k, 5 + k)):
            inline, via_pick, widths = (SeededRandom(seed), ViaPick(seed),
                                        Widths(seed))
            outs = [run(state, s, budget)
                    for s in (inline, via_pick, widths)]
            assert outs[0].to_dict() == outs[1].to_dict() == \
                outs[2].to_dict(), (algorithm, k, seed, budget)
            assert outs[0].trace == outs[1].trace == outs[2].trace
            # Each took exactly as many bits from the stream.
            assert inline._bits(64) == via_pick._bits(64) == \
                widths._bits(64)
            if budget == 10 ** 6:
                assert {1, 2, 3, 4} <= widths.widths, (algorithm, k)


if __name__ == "__main__":
    test_inline_draws_equal_the_runs_pick_makes()
    print("ok")
