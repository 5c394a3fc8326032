"""Value-indefiniteness certification calculus.

A projective outcome |psi><psi| on a system prepared in |phi> is certified
value-indefinite when the overlap |<psi|phi>| lies in the closed window
[sqrt(5/14), 3/sqrt(14)]. With the protocol's preparation the overlaps are
estimated as the square roots of the observed binary outcome frequencies.

The certified-fraction accounting is deliberately conservative: every
deviation of the zero-frequency from 1/2 is attributed to uncertified runs
that deterministically emit the majority bit. Pairwise debiasing then leaves
a logical bit uncertified only when both of its raw bits were.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .bits import Outcomes, RawStream
from .errors import ValidationError

BOUND_LO = math.sqrt(5.0 / 14.0)
BOUND_HI = 3.0 / math.sqrt(14.0)


@dataclass(frozen=True)
class CertificationReport(Outcomes):
    """The :class:`Outcomes` of a trace and the certification of each
    binary outcome."""

    overlap_plus: float
    overlap_minus: float
    bound_lo: float
    bound_hi: float
    certified_plus: bool
    certified_minus: bool
    certified_fraction_raw: float
    certified_fraction_final: float

    def entries(self):
        """The ``certify`` report's ``(key, value)`` lines."""
        yield "report", "certify"
        yield from asdict(self).items()


def estimate_overlaps(p0: float, p1: float) -> tuple[float, float]:
    """Overlap estimates (sqrt(p0), sqrt(p1)) from outcome frequencies."""
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ValidationError("frequencies must lie in [0, 1]")
    return math.sqrt(p0), math.sqrt(p1)


def check_certified(overlap: float) -> bool:
    """True iff the overlap lies inside the closed certification window."""
    if not 0.0 <= overlap <= 1.0:
        raise ValidationError("overlap must lie in [0, 1]")
    return BOUND_LO <= overlap <= BOUND_HI


def certified_fraction_raw(p0: float, p1: float) -> float:
    """Conservative certified fraction of the raw bits: 1 - 2|q - 1/2| where
    q is the zero-frequency among binary outcomes."""
    if p0 < 0.0 or p1 < 0.0 or p0 + p1 > 1.0 + 1e-12:
        raise ValidationError("need p0, p1 >= 0 with p0 + p1 <= 1")
    total = p0 + p1
    if total == 0.0:
        raise ValidationError("certified fraction undefined without binary outcomes")
    return 1.0 - 2.0 * abs(p0 / total - 0.5)


def certified_fraction_final(c_raw: float) -> float:
    """Certified fraction after pairwise debiasing: a logical bit is
    uncertified only when both constituent raw bits are, 1 - (1 - c)^2."""
    if not 0.0 <= c_raw <= 1.0:
        raise ValidationError("certified fraction must lie in [0, 1]")
    return 1.0 - (1.0 - c_raw) ** 2


def build_report(stream: RawStream) -> CertificationReport:
    """Assemble the certification report from a symbol trace. Frequencies
    are conditioned on the binary outcomes; discards carry no bias
    information and are excluded before estimation."""
    if stream.n0 + stream.n1 == 0:
        raise ValidationError("cannot certify a stream with no binary outcomes")
    freq = Outcomes.of(stream)
    ov_plus, ov_minus = estimate_overlaps(freq.p0, freq.p1)
    c_raw = certified_fraction_raw(freq.p0, freq.p1)
    return CertificationReport(
        **asdict(freq),
        overlap_plus=ov_plus,
        overlap_minus=ov_minus,
        bound_lo=BOUND_LO,
        bound_hi=BOUND_HI,
        certified_plus=check_certified(ov_plus),
        certified_minus=check_certified(ov_minus),
        certified_fraction_raw=c_raw,
        certified_fraction_final=certified_fraction_final(c_raw),
    )
