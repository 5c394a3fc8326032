"""Desk-scale simulator and validation toolkit for a contextuality-certified
qutrit random number generator."""

from .certify import build_report
from .extract import to_bits, von_neumann_extract
from .protocol import ProtocolConfig, TrialRandom, run_batch, run_trial
from .stats import nist_subset

__version__ = "0.1.0"
