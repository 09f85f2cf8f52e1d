import json
from pathlib import Path

import numpy as np

from busemetric import arcs
from busemetric.cli import build_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_smooth_segments_take_one_span():
    # the feature mask and the query splitter make the same decision: a
    # segment the mask sends to the bulk rule gets no interior cut from
    # segment_query_nodes, so its bulk nodes are the ones the splitter would
    # have produced
    cfg = json.loads((CONFIG_DIR / "ba_inv_sqrt.json").read_text())
    nu = build_scenario(cfg["scenario"], cfg["seed"]).measure
    segs = nu.mu.segments
    boundary = arcs.boundary_angles(nu.omega.arc_pieces())
    lo, hi = np.array(cfg["plan"]["region"], dtype=float)
    rng = np.random.default_rng(31)
    smooth = 0
    for _ in range(30):
        x = lo + (hi - lo) * rng.random(2)
        y = lo + (hi - lo) * rng.random(2)
        special = arcs.segments_needing_features(segs, x, y, boundary)
        for k in np.flatnonzero(~special):
            pts, wts = arcs.segment_query_nodes(*segs[k], x, y, boundary)
            assert len(wts) == arcs.SEGMENT_ORDER, (k, x, y)
        smooth += int(np.sum(~special))
    assert len(segs) == 1024
    assert smooth > 0.9 * 30 * len(segs)
