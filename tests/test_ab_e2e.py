"""The verdict rule of ``tools/ab_e2e.py`` on canned samples."""

import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_e2e.py"
_spec = importlib.util.spec_from_file_location("ab_e2e", _TOOL)
ab_e2e = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_e2e)

#: ten parent runs of a rate: median 37.05, quartiles 36.075-37.675
PARENT = [30.8, 36.0, 36.1, 36.9, 37.0, 37.1, 37.4, 37.5, 38.2, 40.0]


def test_quartiles_of_one_run_are_that_run():
    assert ab_e2e.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_e2e.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_every_pair_won_beyond_the_parents_spread_is_a_gain():
    v = ab_e2e.verdict(PARENT, [p * 1.2 for p in PARENT], "higher")
    assert (v["verdict"], v["won"], v["lost"], v["pairs"]) == ("gain", 10, 0, 10)
    assert abs(v["shift_frac"] - 0.2) < 1e-9


def test_one_lost_pair_in_ten_still_claims_two_do_not():
    change = [p + 5.0 for p in PARENT]
    change[0] = PARENT[0] - 1.0
    assert ab_e2e.verdict(PARENT, change, "higher")["verdict"] == "gain"
    change[1] = PARENT[1] - 1.0
    v = ab_e2e.verdict(PARENT, change, "higher")
    assert (v["verdict"], v["won"], v["lost"]) == ("no claim", 8, 2)


def test_a_shift_inside_the_parents_quartile_distance_is_no_claim():
    # wins all ten pairs, but by less than the parent's own spread (1.6)
    v = ab_e2e.verdict(PARENT, [p + 0.5 for p in PARENT], "higher")
    assert (v["verdict"], v["won"]) == ("no claim", 10)


def test_ties_count_for_neither_side():
    change = [p + 5.0 for p in PARENT[:8]] + PARENT[8:]
    v = ab_e2e.verdict(PARENT, change, "higher")
    assert (v["verdict"], v["won"], v["lost"]) == ("no claim", 8, 0)


def test_lower_is_better_flips_the_sign():
    setup = [1.10, 1.11, 1.09, 1.12, 1.10, 1.11, 1.13, 1.08, 1.10, 1.11]
    v = ab_e2e.verdict(setup, [s - 0.12 for s in setup], "lower")
    assert (v["verdict"], v["won"]) == ("gain", 10)
    assert v["shift_frac"] > 0
    assert ab_e2e.verdict(setup, [s + 0.12 for s in setup], "lower")["verdict"] == "loss"


def test_fewer_than_ten_pairs_never_claim():
    v = ab_e2e.verdict(PARENT[:4], [p * 2 for p in PARENT[:4]], "higher")
    assert v["verdict"].startswith("no claim") and v["won"] == 4
