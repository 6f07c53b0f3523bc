"""Byte-identity of series JSON on a small fixed corpus.

The sha256 digests below pin the exact bytes of `series_to_json` for the
engine, its operators and the three direct series.  They were recorded
before the engine's duplicated code paths were merged, so any change to an
artifact's bytes fails here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from glsmkit.model import parse_model
from glsmkit.series import (
    big_i_function,
    glsm_i_function,
    series_to_json,
    single_character_insertion,
    twist_novikov,
    z_partial,
)
from glsmkit.specialize import (
    CiSpec,
    FjrwSpec,
    HybridSpec,
    ci_ambient_series,
    fjrw_direct_series,
    hybrid_direct_series,
)

from conftest import CUBIC, QUINTIC, RANK2

F = Fraction

RANK2_SPEC = FjrwSpec(
    n=2, d_w=3, r_charges=(1, 1), group_data=((3, (1, 1)), (3, (1, 2))), potential="x1^3+x2^3"
)
HYBRID_SPEC = HybridSpec(x_weights=(1, 1), p_weights=(2,))
CI_22 = CiSpec(
    ambient_r=4,
    k=1,
    ambient_weights=((1, 1, 1, 1),),
    theta=(F(1),),
    taus=((2,), (2,)),
    sections=("x1^2+x2^2", "x3^2+x4^2"),
)


def _model(data):
    return parse_model(json.dumps(data))


def _rank2_ambient():
    m = _model(RANK2)
    return big_i_function(m, (m.column(0),), (single_character_insertion("t1", 0, 1),), F(1), 2)


CORPUS = {
    "quintic-glsm-q3": lambda: glsm_i_function(_model(QUINTIC), q_bound=F(3)),
    "cubic-glsm-q2": lambda: glsm_i_function(_model(CUBIC), q_bound=F(2)),
    "rank2-ambient-insertion-t2": _rank2_ambient,
    "quintic-z-partial-by-insertion": lambda: z_partial(
        big_i_function(_model(QUINTIC), q_bound=F(2)), [(1,)], "by_insertion"
    ),
    "quintic-twist-novikov": lambda: twist_novikov(glsm_i_function(_model(QUINTIC), q_bound=F(2)), [(5,)]),
    "fjrw-direct": lambda: fjrw_direct_series(RANK2_SPEC, F(2), t_order=1),
    "hybrid-direct": lambda: hybrid_direct_series(HYBRID_SPEC, F(3), t_order=1),
    "ci-direct": lambda: ci_ambient_series(CI_22, F(2)),
    "ci-direct-insertion": lambda: ci_ambient_series(
        CI_22, F(2), 1, ((1,),), (single_character_insertion("t1", 0, 1),)
    ),
}

DIGESTS = {
    "ci-direct": "9d58ed0f695bf8b52b68d3ebc126ced90146b6996d8c9b27bebcb3a077a00b7d",
    "ci-direct-insertion": "2d2895d5afe33cf0e4dfd675132e2678e2ba10d9b30fd093fa2443444369c447",
    "cubic-glsm-q2": "0a30cc080ddf245d28641ec7c5a29cc6b21df4a23519ce9a550b4be0afc095b9",
    "fjrw-direct": "fbbe32f93219837e31988f8a790f545ade050d709f83977902c65ce831f41e43",
    "hybrid-direct": "1153af9e259886d112e88ca25fb91f6148bdfb6ccf0c7ec060d369a6c4ff4104",
    "quintic-glsm-q3": "883969717b6d713a9eb5610cbabe93dca94b13a65d529e396d59f1f4807bf4de",
    "quintic-twist-novikov": "62008c3900c83395d66df5ef3a5660ad6db548f2f60636e02d3783aadd0c616c",
    "quintic-z-partial-by-insertion": "db12fc7150417e4de5602fd3f609e459064a243c394ca72c83e4d470b0e347dd",
    "rank2-ambient-insertion-t2": "3ac6dcc84a476217352ee3d05b3673fb95356771bdffa90802f8d52caa535c96",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_series_bytes_pinned(name):
    text = series_to_json(CORPUS[name]())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
