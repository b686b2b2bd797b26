"""Retired JSON payload normalizer, the reference for ``ioutil.dumps_json``.

Persisted documents used to be walked by :func:`to_jsonable_oracle`
(then named ``repro.ioutil.to_jsonable``) and written with
``json.dumps(..., indent=1)``, which runs CPython's pure-Python
encoder.  The shipped :func:`repro.ioutil.dumps_json` hands numpy
values to the C encoder's ``default`` hook instead; the parity tests
assert both give the same JSON.

One fix was made to the walk on the way out: it iterated over
``ndarray.tolist()``, which is a bare scalar for a 0-d array, so a 0-d
array anywhere in a payload raised ``TypeError``.  It now recurses into
``tolist()`` itself, which gives the scalar for 0-d arrays and the same
nested lists as before otherwise.
"""

from __future__ import annotations

import numpy as np


def to_jsonable_oracle(value):
    """Recursively coerce numpy scalars/arrays to native Python types.

    ``np.floating``/``np.integer``/``np.bool_`` become ``float``/``int``/
    ``bool``, arrays become (nested) lists, and containers are rebuilt
    with coerced leaves.  Non-finite floats pass through as floats.
    """
    if isinstance(value, dict):
        return {key: to_jsonable_oracle(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable_oracle(item) for item in value]
    if isinstance(value, np.ndarray):
        return to_jsonable_oracle(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
