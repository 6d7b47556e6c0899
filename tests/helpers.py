"""One-point calls of package internals that the tests compare with the
oracles, and the line mutations that the text-reader property tests feed."""

import math

import numpy as np
from hypothesis import strategies as st

from ggnet import decoder, ops


def bilinear_sample(featmap, x: float, y: float, channel: int, batch: int = 0) -> float:
    """Bilinear read of one channel at continuous (x, y); zero outside the map.
    A one-point call of the sampler that ``ops.deform_aggregate`` runs."""
    b, c, h, w = featmap.shape
    ops.check_index("batch", batch, b)
    ops.check_index("channel", channel, c)
    rec = ops._sampling(np.full((1, 1, 1), x, np.float64), np.full((1, 1, 1), y, np.float64), h, w)
    planes = ops._planes(featmap.data[batch, channel][None, None])
    return float(ops._interpolate(rec, planes, 1.0)[0, 0, 0])


def match_point(x: float, y: float, apm_offset, pool: np.ndarray, norm: str = "l1") -> int:
    """Index of the pool row that the decoder's matcher picks for one peak at
    (x, y): the row minimizing distance to (x, y) minus the offset, over its
    score. Ties go to the higher-scoring row, then to the earlier one."""
    if len(pool) == 0:
        raise ValueError("no candidates to match against")
    ranked = np.argsort(-pool[:, 0], kind="stable")
    tx, ty = np.array([x - apm_offset[0]]), np.array([y - apm_offset[1]])
    return int(ranked[decoder._nearest(tx, ty, pool[ranked], norm)[0]])


_TOKENS = st.one_of(st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1", "-0", "x"]),
                    st.integers(-3, 40).map(str), st.floats().map(repr))


@st.composite
def mutated_fields(draw, fields: list[str]) -> list[str]:
    """The tokens of a valid text line, image id first and two boxes last,
    after one to three edits: a token replaced, two corners of a box swapped,
    a token dropped or one inserted. The image id is never edited."""
    fields = list(fields)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "swap", "drop", "insert"]))
        i = draw(st.integers(1, len(fields) - 1))
        if edit == "replace":
            fields[i] = draw(_TOKENS)
        elif edit == "swap" and len(fields) > 8:
            a = len(fields) - 8 + 4 * draw(st.integers(0, 1)) + draw(st.integers(0, 1))
            fields[a], fields[a + 2] = fields[a + 2], fields[a]
        elif edit == "drop":
            del fields[i]
        elif edit == "insert":
            fields.insert(i, draw(_TOKENS))
    return fields


def valid_box(box) -> bool:
    """Finite corners and positive width and height."""
    return all(math.isfinite(v) for v in box) and box[2] > box[0] and box[3] > box[1]
