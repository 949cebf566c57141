"""Exact combinatorics of simple normal crossing Calabi-Yau pairs.

Subpackages:

* `symcalc` -- truncated series calculus in Chern roots / Chern classes,
  with verification of the Todd and shifted-Todd identities;
* `chow` -- finite cohomology-ring models with exact integration and
  Riemann-Roch Euler characteristics;
* `sncpair` -- weighted Euler characteristics of stratified pairs, model
  pairs on projective space, and the blow-up transform;
* `inputs` -- the rules of outside input that every reader applies;
* `hodge` -- Hodge diamond bookkeeping and determinant-line exponent
  ledgers;
* `cli` -- the `cypair` command-line front end.

All arithmetic is exact rational; no module performs any rounding.
"""

__version__ = "0.1.0"
