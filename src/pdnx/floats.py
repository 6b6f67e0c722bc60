"""Float totals that do not depend on the Python version.

Since Python 3.12 the built-in sum() compensates float rounding, so a total
taken with it moves in its last bits with the interpreter: the shipped A1
demand weights total 2241.0000000000023 on 3.11 and 2241.0 on 3.12, and
every sink current and report byte drawn from them moves too.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable

import numpy as np


def ordered_sum(values: Iterable):
    """values added left to right from the int 0, as sum() adds them before
    Python 3.12: one rounding per addition, and an empty total is the int 0.

    A float array is added by np.add.accumulate, which adds in that order
    too, without a Python call per element; its total is a Python float.
    """
    if isinstance(values, np.ndarray):
        # 0 + makes an all -0.0 total 0.0, as adding to the int 0 does.
        return 0 + float(np.add.accumulate(values)[-1]) if values.size else 0
    return functools.reduce(operator.add, values, 0)
