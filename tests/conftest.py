from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from todakdv.lattice import LatticeState


def random_smooth_state(N: int, seed: int, max_mode: int = 8, amp: float = 2.0) -> LatticeState:
    """Independent random trig polynomials for a and b (off the slow manifold)."""
    rng = np.random.default_rng(seed)
    x = np.arange(N) / N

    def smooth():
        out = np.zeros(N)
        for m in range(1, max_mode + 1):
            out += amp * (
                rng.normal() * np.cos(2 * np.pi * m * x)
                + rng.normal() * np.sin(2 * np.pi * m * x)
            ) / np.sqrt(m)
        return out

    return LatticeState(N, smooth(), smooth())


def stacked(s: LatticeState) -> np.ndarray:
    """The stacked (2N,) vector x = (a, b) that the steppers work on."""
    return np.concatenate((s.a, s.b))


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


_ENTRY_POOL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**60, -(2.0**-60)]),
    _signed(st.floats(min_value=5e-324, max_value=2.0**-1022)),  # subnormal
    _signed(st.floats(min_value=2.0**-62, max_value=2.0**-58)),
    _signed(st.floats(min_value=2.0**58, max_value=2.0**62)),
    st.floats(min_value=-3.0, max_value=3.0),
)


@st.composite
def mixed_states(draw):
    """Smooth states with some entries swapped for zeros, subnormals or 2^+-60 values."""
    N = draw(st.integers(min_value=8, max_value=40))
    smooth = random_smooth_state(N, seed=draw(st.integers(min_value=0, max_value=2**16)))
    vals = np.concatenate([smooth.a, smooth.b])
    for i in draw(st.lists(st.integers(min_value=0, max_value=2 * N - 1), max_size=2 * N)):
        vals[i] = draw(_ENTRY_POOL)
    return LatticeState(N, vals[:N], vals[N:])


def random_fraction_state(N: int, seed: int, scale: int = 1):
    """Exact rational lattice data for zero-tolerance identities."""
    rng = np.random.default_rng(seed)
    a = [Fraction(int(rng.integers(-50, 50)) * scale, int(rng.integers(1, 40))) for _ in range(N)]
    b = [Fraction(int(rng.integers(-50, 50)) * scale, int(rng.integers(1, 40))) for _ in range(N)]
    return a, b


def exact_flow_rhs(aF, bF, N, k=2):
    """Flow right side in exact rationals; independent oracle for the stencils.

    k=1: da = N(b(k)-b(k+1)) style first flow; k=2: the recombined stencil of
    rhs_flow2, written out term by term.
    """
    eps2 = Fraction(1, N * N)

    def at(v, i):
        return v[i % N]

    da, db = [], []
    for i in range(N):
        a, ap, am = at(aF, i), at(aF, i + 1), at(aF, i - 1)
        b, bp, bm = at(bF, i), at(bF, i + 1), at(bF, i - 1)
        if k == 1:
            A, Am = 2 + eps2 * a, 2 + eps2 * am
            B, Bp = -1 + eps2 * b, -1 + eps2 * bp
            da.append(N * N * (B - Bp) * N)
            db.append(N * N * B * (A - Am) * N)
        elif k == 2:
            L = 2 * bp - 2 * b - ap + am
            M = 2 * a - 2 * am - bp + bm
            Fs = bp * a + bp * ap - b * a - b * am
            G = (
                -2 * b * a + 2 * b * am + a * a - am * am + b * bp - b * bm
                + eps2 * (-b * a * a + b * am * am)
            )
            da.append(N * (L + eps2 * Fs))
            db.append(N * (M + eps2 * G))
        else:
            raise ValueError(k)
    return da, db
