"""The tuple-keyed series product: a test oracle for `symcalc._Series.__mul__`.

It adds exponent vectors as tuples, one tuple per term pair, and shares
nothing with the packed product but the operands' integer form and the
subclass hooks that settle a product (`_compatible`, `_degree`, `_settle`).
"""

from operator import add


def product(a, b):
    """a * b for two series of one kind, by the rules of `*`."""
    order = a._compatible(b)
    degree = a._degree
    left, right = a._num, b._num
    if len(right) < len(left):
        left, right = right, left
    graded_right = sorted((degree(eb), eb, nb) for eb, nb in right.items())
    out = {}
    get = out.get
    for ea, na in left.items():
        room = order - degree(ea)
        for db, eb, nb in graded_right:
            if db > room:
                break
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + na * nb
    return a._settle(order, out, a._den * b._den)
