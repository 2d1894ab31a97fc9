"""Pinned outputs of ``align_pair`` at the sizes the estimators run.

``data/pinned_warps.json`` holds SRSF pairs with the warp, the aligned SRSF
and the distance that ``align_pair`` returned for them at commit f6acb31,
before its DP recursion took one argmin per row and its warp one
interpolation.  The pairs are outcome and covariate SRSFs of the
``continuous_functional`` scenario at T=50 and T=100 (a unit against the
mean, and a unit against a unit) with penalty 0 and 0.05, a pair of equal
curves, a plateau against its shift (whose zero stretches make DP paths
tie, so it pins the tie-breaking order of the steps), and random pairs at
T=2 and T=3.  Those changes kept every arithmetic step, so all three
outputs must match bit for bit.
"""
import json
import pathlib

import numpy as np
import pytest

from funcause import Grid
from funcause.elastic import SrsfCurve, align_pair

PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "pinned_warps.json").read_text())


@pytest.mark.parametrize("pair", PINNED["pairs"], ids=lambda p: p["name"])
def test_align_pair_pinned(pair):
    grid = Grid.uniform(len(pair["q1"]))
    gamma, aligned, distance = align_pair(
        SrsfCurve(grid, pair["q1"]), SrsfCurve(grid, pair["q2"]), penalty=pair["penalty"]
    )
    np.testing.assert_allclose(gamma.values, pair["gamma"], rtol=0, atol=0)
    np.testing.assert_allclose(aligned.values, pair["aligned"], rtol=0, atol=0)
    assert distance == pair["distance"]
