"""A circuit output read by basis label, for the tests that check it that way.

The circuits return their outputs as points-last arrays
(``CircuitOutput.columns``); a test that names an amplitude (R, L, spin)
reads it through :func:`labeled`.
"""

import numpy as np

from qdcnot.state import JointState


def labeled(out):
    """``out`` as a state over (p1, p2, spin) with the config's point axes,
    then the input axes, as its batch; its fault kept, and its per-point
    weight given the input axes."""
    k, i = len(out.points), len(out.inputs)
    amps = out.columns.reshape((2,) + out.inputs + (2, 2) + out.points).transpose(
        *range(i + 3, i + 3 + k), *range(1, i + 1), i + 1, i + 2, 0)
    weight = np.reshape(out.weight, np.shape(out.weight) + (1,) * len(out.inputs))
    return JointState(("p1", "p2", "spin"), amps, weight, out.fault)
