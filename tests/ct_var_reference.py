"""Reference ct_var: the full series convolution, for the step-identity test.

It forms every factor's cleared series term for t = 0..M and keeps every
convolution coefficient up to v**M, as the engine once did, and reads only
v**M at the end.  Each term is built with plain powers, so it shares no
series code with the engine's ct_var, only FactoredRational.create and Poly.
"""

import math

from ct_forge.ctengine import FactoredRational
from ct_forge.polyring import Poly
from rationals import power


def ct_var(f: FactoredRational, v: int) -> FactoredRational:
    """Constant term of f in v for affine denominator factors."""
    if f.is_zero():
        return f
    out_den, series, M, scale = [], [], 0, 1
    for base, exp in f.den:
        if base.degree_in(v) == 0:
            out_den.append((base, exp))
            continue
        parts = base.coeffs_in(v)
        h0, h1 = parts.get(0, Poly.zero()), parts[1]
        if h0.is_zero():  # a pure monomial c*v shifts the wanted power
            M += exp
            scale /= h1.constant_coeff() ** exp
        else:
            series.append((h0, h1, exp))
    acc = {d: p for d, p in f.num.coeffs_in(v).items() if d <= M}
    for h0, h1, exp in series:
        out_den.append((h0, exp + M))
        fac = [math.comb(exp + t - 1, t) * power(-h1, t) * power(h0, M - t)
               for t in range(M + 1)]
        new_acc = {}
        for d, p in acc.items():
            for t in range(M + 1 - d):
                new_acc[d + t] = new_acc.get(d + t, Poly.zero()) + p * fac[t]
        acc = new_acc
    return FactoredRational.create(acc.get(M, Poly.zero()) * scale, out_den)
