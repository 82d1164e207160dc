"""A circuit output read by photon pair or by basis label, for the tests that
check it that way.

The circuits return their outputs as real points-last arrays
(``CircuitOutput.amplitudes``); a test that reads an amplitude by photon
pair reads it through :func:`columns`, and one that names it (R, L, spin)
through :func:`labeled`.
"""

import numpy as np

from qdcnot.state import JointState


def columns(out):
    """The output amplitudes of ``out`` as (spin, input, photon pair, point),
    complex if the inputs are."""
    y = out.amplitudes
    re, *im = y.reshape((2, -1, 4) + y.shape[2:]).transpose(1, 0, 3, 2, 4)
    if not im:
        return re
    both = np.empty(re.shape, complex)
    both.real, both.imag = re, im[0]
    return both


def labeled(out):
    """``out`` as a state over (p1, p2, spin) with the config's point axes,
    then the input axes, as its batch; its fault kept, and its per-point
    weight given the input axes."""
    k, i = len(out.points), len(out.inputs)
    amps = columns(out).reshape((2,) + out.inputs + (2, 2) + out.points).transpose(
        *range(i + 3, i + 3 + k), *range(1, i + 1), i + 1, i + 2, 0)
    weight = np.reshape(out.weight, np.shape(out.weight) + (1,) * len(out.inputs))
    return JointState(("p1", "p2", "spin"), amps, weight, out.fault)
