"""The unmemoized ring reduction: a test oracle for `chow.RingModel`'s memo.

It rewrites a raw monomial by the model's rules in `Fraction`s, expanding
every sub-tree again, and shares nothing with the memo but the rules.
"""

from fractions import Fraction


def reduce_into(model, mono, coeff, out):
    """Add coeff * mono, reduced to basis monomials of `model`, into `out`;
    return the number of rewrite steps on its longest chain."""
    if sum(mono) > model.dim:
        return 0
    for i in reversed(range(len(mono))):
        if mono[i] > model.caps[i]:
            rule = model.rewrites.get(i)
            if rule is None:
                return 1  # g_i^{cap+1} = 0
            rest = list(mono)
            rest[i] -= model.caps[i] + 1
            steps = [reduce_into(model, tuple(a + b for a, b in zip(rest, rmono)),
                                 coeff * rcoeff, out)
                     for rmono, rcoeff in rule.items()]
            return 1 + max(steps, default=0)
    out[mono] = out.get(mono, Fraction(0)) + coeff
    return 0


def reduce_raw(model, raw):
    """The reduction of the raw sum {monomial: coefficient}, zeros left out."""
    out = {}
    for mono, q in raw.items():
        reduce_into(model, mono, Fraction(q), out)
    return {m: q for m, q in out.items() if q != 0}
