"""Stratum tables shared by the test modules, as parsed JSON."""

import itertools

# The plane with the coordinate-triangle divisor 1*H1 + 1*H2 - 5*Hinf at
# d = 1, carrying the blow-up center H1 * H2 (a point of codimension 2
# missing Hinf).  chi_d is 0, the exceptional multiplicity is 3, and both
# induced-pair coefficients are 1.
TRIANGLE_TABLE = {
    "d": 1,
    "components": [
        {"id": "H1", "mult": 1, "contains_center": True},
        {"id": "H2", "mult": 1, "contains_center": True},
        {"id": "Hinf", "mult": -5, "contains_center": False},
    ],
    "center": {"codim": 2},
    "strata": [
        {"subset": [], "chi": 3, "nonempty": True, "chi_meet_center": 1},
        {"subset": ["H1"], "chi": 2, "nonempty": True, "chi_meet_center": 1},
        {"subset": ["H2"], "chi": 2, "nonempty": True, "chi_meet_center": 1},
        {"subset": ["Hinf"], "chi": 2, "nonempty": True, "chi_meet_center": None},
        {"subset": ["H1", "H2"], "chi": 1, "nonempty": True, "chi_meet_center": 1},
        {"subset": ["H1", "Hinf"], "chi": 1, "nonempty": True, "chi_meet_center": None},
        {"subset": ["H2", "Hinf"], "chi": 1, "nonempty": True, "chi_meet_center": None},
    ],
}

# Codimension-2 center inside B and C but not A, at d = 1.  The stratum
# {B,C} has the Euler number of the center, so the blow-up deletes it,
# while {A,B,C} (chi 5) survives: the blown-up table is not downward
# closed, and the transform must reject it.
NOT_CLOSED_AFTER_BLOWUP_TABLE = {
    "d": 1,
    "components": [
        {"id": "A", "mult": 1},
        {"id": "B", "mult": 1, "contains_center": True},
        {"id": "C", "mult": 1, "contains_center": True},
    ],
    "center": {"codim": 2},
    "strata": [
        {"subset": subset, "chi": chi, "chi_meet_center": 2 if "A" in subset else 1}
        for subset, chi in [
            ([], 3), (["A"], 3), (["B"], 3), (["C"], 3), (["A", "B"], 3),
            (["A", "C"], 3), (["B", "C"], 1), (["A", "B", "C"], 5)]
    ],
}

EMPTY_DIVISOR_TABLE = {
    "d": 2,
    "components": [],
    "center": None,
    "strata": [{"subset": [], "chi": 7, "nonempty": True, "chi_meet_center": None}],
}


def centered_table(count):
    """`count` components D0, D1, ... at d = 1, the center inside D0 alone.

    The center has codimension 2 and misses every other D_j, which meets D0
    in one stratum, so the strata are the ambient space, the singletons and
    the pairs {D0, Dj}.  The blow-up adds E as component count + 1.
    """
    ids = [f"D{j}" for j in range(count)]
    strata = [{"subset": [], "chi": 3, "chi_meet_center": 1},
              {"subset": ids[:1], "chi": 2, "chi_meet_center": 1}]
    for other in ids[1:]:
        strata.append({"subset": [other], "chi": 2, "chi_meet_center": None})
        strata.append({"subset": [ids[0], other], "chi": 1,
                       "chi_meet_center": None})
    return {
        "d": 1,
        "components": [{"id": name, "mult": 1, "contains_center": name == "D0"}
                       for name in ids],
        "center": {"codim": 2},
        "strata": strata,
    }


def coordinate_table(r, mults):
    """The r + 1 coordinate hyperplanes H1, ..., Hr, Hinf of P^r at d = 1,
    with Hinf's multiplicity making the divisor pluricanonical, and the
    center H1 cap H2 (a coordinate P^(r-2), codimension 2).

    Any k hyperplanes meet in a P^(r-k), so D_J has Euler number
    r + 1 - |J| for |J| <= r; the center meets D_J in a P^(r-2-|J off C|),
    and misses it when that dimension is negative.  Every subset of size
    at most r is a stratum: 2^(r+1) - 1 of them.
    """
    ids = [f"H{j + 1}" for j in range(r)] + ["Hinf"]
    all_mults = list(mults) + [-sum(mults) - r - 1]
    strata = []
    for size in range(r + 1):
        for chosen in itertools.combinations(range(r + 1), size):
            meet = r - 1 - sum(1 for j in chosen if j >= 2)
            strata.append({"subset": [ids[j] for j in chosen],
                           "chi": r + 1 - size,
                           "chi_meet_center": meet if meet >= 1 else None})
    return {
        "d": 1,
        "components": [{"id": name, "mult": m, "contains_center": j < 2}
                       for j, (name, m) in enumerate(zip(ids, all_mults))],
        "center": {"codim": 2},
        "strata": strata,
    }
