"""Simulator for a cloner-assisted photonic CNOT on a quantum-dot spin-cavity unit."""

from .cavity import CavityParams, cavity_coeffs
from .devices import ClonerConfig, CpbsError, HwpError, SwitchCoeffs
from .circuits import CnotInputs, DeviceErrorConfig, baseline_cnot, optimized_cnot
from .fidelity import InputEnsemble, average_fidelity
from .sweep import reproduce

__version__ = "0.1.0"
