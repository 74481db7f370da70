"""Step-function initial data on the torus with exact Fourier analysis.

A non-constant step function is the canonical rough datum for dispersive
revival/fractalisation experiments: it is of bounded variation but lies in
no Sobolev space H^s with s >= 1/2, and its Fourier coefficients have an
exact closed form through the jump decomposition

    ghat(n) = 1/(2*pi*i*n) * sum_j (c_j - c_{j-1}) e(-n*b_j),   n != 0,

where b_j are the breakpoints in turns and e(y) = exp(2*pi*i*y).  The
breakpoints are stored as exact Fractions of a turn, so the phases n*b_j
reduce to exact residues and coefficient arrays are bit-stable across runs
and platforms -- quantisation tests compare against them at 1e-12.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dispersion import LINEAR, theta_omega_frac_array
from .fixedpoint import pi as pi_fixed

TWO_PI = 2.0 * math.pi


class StepFunction:
    """A 2*pi-periodic step function, right-continuous on each piece.

    ``breakpoints`` are strictly increasing Fractions in [0, 1) (turns);
    ``values[j]`` is the value on [breakpoints[j], breakpoints[j+1]), with
    the last interval wrapping around to breakpoints[0] + 1.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence[Fraction], values: Sequence[complex]):
        bps = tuple(Fraction(b) for b in breakpoints)
        vals = tuple(complex(v) for v in values)
        if len(bps) < 1 or len(bps) != len(vals):
            raise ValueError("need equally many breakpoints and values, at least one each")
        if any(not (0 <= b < 1) for b in bps):
            raise ValueError("breakpoints must lie in [0, 1) turns")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.values = vals

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c: complex) -> "StepFunction":
        return cls((Fraction(0),), (c,))

    @classmethod
    def indicator(cls, start: Fraction, end: Fraction) -> "StepFunction":
        """Characteristic function of the arc [start, end) given in turns."""
        start, end = Fraction(start), Fraction(end)
        if not 0 <= start < end <= 1:
            raise ValueError("need 0 <= start < end <= 1 in turns")
        if end == 1:
            if start == 0:
                return cls.constant(1.0)
            return cls((Fraction(0), start), (0.0, 1.0))
        return cls((start, end), (1.0, 0.0)) if start == 0 else cls((Fraction(0), start, end), (0.0, 1.0, 0.0))

    # -- basic structure -----------------------------------------------------

    @property
    def pieces(self) -> int:
        return len(self.values)

    def jumps(self) -> list[tuple[Fraction, complex]]:
        """(location, c_j - c_{j-1}) for each breakpoint, zero jumps included."""
        J = len(self.values)
        return [(self.breakpoints[j], self.values[j] - self.values[j - 1]) for j in range(J)]

    def value_at_turns(self, tau) -> complex:
        t = tau % 1 if isinstance(tau, Fraction) else Fraction(tau) % 1
        idx = bisect_right(self.breakpoints, t) - 1
        return self.values[idx]  # idx = -1 wraps to the last piece

    def interval_lengths(self) -> list[Fraction]:
        J = len(self.breakpoints)
        out = []
        for j in range(J):
            nxt = self.breakpoints[(j + 1) % J] + (1 if j == J - 1 else 0)
            out.append(nxt - self.breakpoints[j])
        return out

    # -- analysis ------------------------------------------------------------

    def mean(self) -> complex:
        return sum(v * float(l) for v, l in zip(self.values, self.interval_lengths()))

    def fourier_coefficient(self, n: int) -> complex:
        """Exact closed-form ghat(n); ghat(0) is the mean."""
        if n == 0:
            return self.mean()
        total = 0j
        for b, jump in self.jumps():
            if jump == 0:
                continue
            ph = float((-n * b) % 1)
            total += jump * complex(math.cos(TWO_PI * ph), math.sin(TWO_PI * ph))
        return total / (2j * math.pi * n)

    def coefficients_array(self, M: int) -> np.ndarray:
        """ghat(n) for n = -M..M as a complex array (index n+M).

        Vectorised per jump: the phases -n*b_j mod 1 come from the exact
        position-phase reduction ``theta_omega_frac_array(LINEAR, -b_j, ns)``.
        """
        if M < 0:
            raise ValueError("M must be >= 0")
        ns = np.arange(-M, M + 1, dtype=np.int64)
        out = np.zeros(2 * M + 1, dtype=np.complex128)
        for b, jump in self.jumps():
            if jump != 0:   # jump·e in that order at every size, as in ``line_spectrum``
                e = np.exp(2j * np.pi * theta_omega_frac_array(LINEAR, -b, ns))
                out += np.multiply(jump, e, out=e)
        nz = ns != 0
        out[nz] /= 2j * np.pi * ns[nz]
        out[M] = complex(self.mean())
        return out

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepFunction)
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self) -> str:
        bits = ", ".join(f"{b}->{v:g}" for b, v in zip(self.breakpoints, self.values))
        return f"StepFunction({bits})"


def parse_position(token: str) -> Fraction:
    """A torus position given in radians, as turns in [0, 1): exact for 0
    and (rational)*pi forms ("pi", "pi/2", "3pi/2", "2pi/3"); plain
    numerics ("3.14") are rounded to 2^-48 of a turn."""
    tok = token.strip().lower()
    try:
        if "pi" in tok:
            head, _, tail = tok.partition("pi")
            num = Fraction(head) if head not in ("", "+", "-") else Fraction(f"{head}1")
            if tail.startswith("/"):
                num /= int(tail[1:])
            elif tail:
                raise ValueError(f"bad position token {token!r}")
            return (num / 2) % 1  # x*pi radians = x/2 turns
        val = Fraction(tok)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in position token {token!r}") from exc
    turns = val / (2 * pi_fixed().as_fraction())
    return (turns % 1).limit_denominator(1 << 48)


def parse_datum(spec: str):
    """Parse a datum specification.

    Grammar: ``step:<breakpoints>[:<values>]`` with radian breakpoint
    tokens (pi-forms exact) and optional complex values, one per
    breakpoint, default alternating 1,0.
    """
    if not spec.startswith("step:"):
        raise ValueError(f"unknown datum spec {spec!r}")
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad datum spec {spec!r}")
    raw = [t for t in parts[1].split(",") if t.strip()]
    if not raw:
        raise ValueError("datum needs at least one breakpoint")
    breaks = [parse_position(t) for t in raw]
    if len(parts) == 3:
        vals = []
        for t in parts[2].split(","):
            t = t.strip()
            try:
                vals.append(complex(Fraction(t)))
            except (ValueError, ZeroDivisionError):
                vals.append(complex(t))
        if len(vals) != len(breaks):
            raise ValueError(f"datum has {len(breaks)} breakpoints but {len(vals)} values")
    else:
        vals = [complex((j + 1) % 2) for j in range(len(breaks))]
    order = sorted(range(len(breaks)), key=lambda j: breaks[j])
    return StepFunction([breaks[j] for j in order], [vals[j] for j in order])
