"""Exact modeled I/O of the counters on fixed small instances.

The expected ``(reads, writes)`` pairs pin the charge rules of every
pass: a change to how any pass is charged shows up here as a changed pair.
"""

import numpy as np
import pytest

from invcount import (EmParams, IoTally, RAM_PARAMS, build_cells,
                      count_adaptive, count_capped, count_nonadaptive,
                      reduce_inversions)

EM = EmParams(2048, 32)


def _instances():
    modular = np.array([(i * 37) % 211 for i in range(211)], dtype=np.float64)
    reverse = np.arange(150, dtype=np.float64)[::-1].copy()
    swaps = np.arange(300, dtype=np.float64)
    for i in range(0, 300, 20):
        swaps[i], swaps[i + 1] = swaps[i + 1], swaps[i]
    return {"modular": modular, "reversed": reverse, "swaps": swaps}


INSTANCES = _instances()

#: instance -> (true count, {params: expected}).  ``capped`` maps a cap to
#: (result, reads, writes), ``cells`` a cap to (failed, reads, writes) and
#: ``adaptive`` is (rounds, reads, writes).
GOLDEN = {
    "modular": (10872, {
        EM: {"nonadaptive": (76, 48),
             "capped": {10872: (10872, 140, 100), 1000: (None, 28, 0)},
             "cells": {10872: (False, 43, 52), 1000: (True, 28, 0)},
             "adaptive": (1, 168, 152)},
        RAM_PARAMS: {"nonadaptive": (4642, 3700),
                     "capped": {10872: (10872, 6704, 5382), 1000: (None, 844, 0)},
                     "cells": {10872: (False, 1268, 1486), 1000: (True, 844, 0)},
                     "adaptive": (2, 5486, 3700)},
    }),
    "reversed": (11175, {
        EM: {"nonadaptive": (68, 48),
             "capped": {11175: (11175, 88, 69), 1000: (None, 20, 0)},
             "cells": {11175: (False, 20, 21), 1000: (True, 20, 0)},
             "adaptive": (1, 84, 64)},
        RAM_PARAMS: {"nonadaptive": (3300, 2968),
                     "capped": {11175: (11175, 3900, 3571), 1000: (None, 600, 0)},
                     "cells": {11175: (False, 600, 603), 1000: (True, 600, 0)},
                     "adaptive": (2, 3900, 2968)},
    }),
    "swaps": (15, {
        EM: {"nonadaptive": (302, 320),
             "capped": {15: (15, 673, 394), 500: (15, 186, 107)},
             "cells": {15: (False, 58, 394), 500: (False, 38, 107)},
             "adaptive": (1, 196, 191)},
        RAM_PARAMS: {"nonadaptive": (6600, 4768),
                     "capped": {15: (15, 4896, 5030), 500: (15, 5368, 5199)},
                     "cells": {15: (False, 1828, 4188), 500: (False, 1200, 2231)},
                     "adaptive": (1, 5384, 6865)},
    }),
}

CASES = [(name, params) for name, (_, by_params) in GOLDEN.items()
         for params in by_params]
IDS = [f"{name}-M{p.memory_words}-B{p.block_words}" for name, p in CASES]


def _setup(name, params):
    kstar, by_params = GOLDEN[name]
    red, blue = reduce_inversions(INSTANCES[name])
    return red, blue, kstar, by_params[params]


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_nonadaptive_io(name, params):
    red, blue, kstar, want = _setup(name, params)
    tally = IoTally(params)
    assert count_nonadaptive(red, blue, params, tally) == kstar
    assert (tally.reads, tally.writes) == want["nonadaptive"]


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_capped_io(name, params):
    red, blue, _, want = _setup(name, params)
    for cap, (result, reads, writes) in want["capped"].items():
        tally = IoTally(params)
        assert count_capped(red, blue, cap, params, tally) == result
        assert (tally.reads, tally.writes) == (reads, writes), cap


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_adaptive_io(name, params):
    red, blue, kstar, want = _setup(name, params)
    tally = IoTally(params)
    res = count_adaptive(red, blue, params, tally)
    assert (res.count, res.rounds, tally.reads, tally.writes) == \
        (kstar, *want["adaptive"])


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_build_cells_io(name, params):
    red, blue, _, want = _setup(name, params)
    for cap, (failed, reads, writes) in want["cells"].items():
        tally = IoTally(params)
        built = build_cells(red, blue, cap, tally)
        assert (built.failed, tally.reads, tally.writes) == (failed, reads, writes), cap
