from __future__ import annotations

import numpy as np
import pytest

from hhw_pir.fields import build_tower
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams

# Three instances cover the suite: the default working point, a deliberately
# small one where the distinguisher actually fails sometimes, and a minimal
# one-file instance the hand-written decode oracle can chew through.
TIGHT_PARAMS = SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=1)
MICRO_PARAMS = SchemeParams(p=2, e=1, s=2, v=1, n=3, k=1, m=1, L=1)
TERNARY_PARAMS = SchemeParams(p=3, e=1, s=2, v=1, n=3, k=1, m=3, L=2)
# The one fixture with a proper subfield, q = 4, whose eliminations run on
# F_2 blow-ups.
Q4_PARAMS = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=1)


@pytest.fixture(scope="session")
def preset_params() -> SchemeParams:
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def preset_tower(preset_params):
    return build_tower(preset_params.p, preset_params.e, preset_params.s)


@pytest.fixture(scope="session")
def tight_params() -> SchemeParams:
    return TIGHT_PARAMS


@pytest.fixture(scope="session")
def tight_tower(tight_params):
    return build_tower(tight_params.p, tight_params.e, tight_params.s)


@pytest.fixture(scope="session")
def micro_params() -> SchemeParams:
    return MICRO_PARAMS


@pytest.fixture(scope="session")
def micro_tower(micro_params):
    return build_tower(micro_params.p, micro_params.e, micro_params.s)


@pytest.fixture(scope="session")
def ternary_params() -> SchemeParams:
    return TERNARY_PARAMS


@pytest.fixture(scope="session")
def ternary_tower(ternary_params):
    return build_tower(ternary_params.p, ternary_params.e, ternary_params.s)


@pytest.fixture(scope="session")
def q4_params() -> SchemeParams:
    return Q4_PARAMS


@pytest.fixture(scope="session")
def q4_tower(q4_params):
    return build_tower(q4_params.p, q4_params.e, q4_params.s)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
