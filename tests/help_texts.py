"""The help text of every `cypair` parser, keyed by its prog.

Each is `format_help()` with the terminal 80 columns wide (`COLUMNS=80`),
under CPython 3.11's argparse.
"""

HELP_TEXTS = {
    'cypair': """\
usage: cypair [-h] {identities,chi-d,blowup-check,hrr,hodge} ...

Exact checks for simple normal crossing pair combinatorics.

positional arguments:
  {identities,chi-d,blowup-check,hrr,hodge}
    identities          verify the Todd / exterior-character identities
    chi-d               weighted Euler characteristics
    blowup-check        check blow-up invariance of chi_d
    hrr                 Riemann-Roch Euler characteristics
    hodge               Hodge diamond bookkeeping

options:
  -h, --help            show this help message and exit
""",
    'cypair identities': """\
usage: cypair identities [-h] [--max-m MAX_M] [--json] [--out PATH]

options:
  -h, --help     show this help message and exit
  --max-m MAX_M  verify for every root count up to this bound (at most 15)
  --json         emit the report as a single JSON document
  --out PATH     write the report to a file instead of stdout
""",
    'cypair chi-d': """\
usage: cypair chi-d [-h] {cp,table} ...

positional arguments:
  {cp,table}
    cp        model pair on projective r-space
    table     stratum table from a JSON file

options:
  -h, --help  show this help message and exit
""",
    'cypair chi-d cp': """\
usage: cypair chi-d cp [-h] --r R --s S --d D [--mults MULTS] [--json]
                       [--out PATH]

options:
  -h, --help     show this help message and exit
  --r R          ambient dimension (at most 18)
  --s S          number of coordinate hyperplanes
  --d D          pluricanonical degree (at most 40 digits)
  --mults MULTS  comma-separated positive multiplicities, one per hyperplane
                 (at most 40 digits each)
  --json         emit the report as a single JSON document
  --out PATH     write the report to a file instead of stdout
""",
    'cypair chi-d table': """\
usage: cypair chi-d table [-h] --file FILE [--json] [--out PATH]

options:
  -h, --help   show this help message and exit
  --file FILE  stratum-table document
  --json       emit the report as a single JSON document
  --out PATH   write the report to a file instead of stdout
""",
    'cypair blowup-check': """\
usage: cypair blowup-check [-h] (--file FILE | --random COUNT) [--seed SEED]
                           [--json] [--out PATH]

options:
  -h, --help      show this help message and exit
  --file FILE     stratum table with center metadata
  --random COUNT  run COUNT random synthetic tables instead (at most 10000)
  --seed SEED     seed for --random (default 7)
  --json          emit the report as a single JSON document
  --out PATH      write the report to a file instead of stdout
""",
    'cypair hrr': """\
usage: cypair hrr [-h] {cp} ...

positional arguments:
  {cp}
    cp        twisted Hodge sheaves on projective space

options:
  -h, --help  show this help message and exit
""",
    'cypair hrr cp': """\
usage: cypair hrr cp [-h] --n N --p P [--twist TWIST] [--json] [--out PATH]

options:
  -h, --help     show this help message and exit
  --n N          ambient dimension (at most 75)
  --p P          form degree
  --twist TWIST  line-bundle twist
  --json         emit the report as a single JSON document
  --out PATH     write the report to a file instead of stdout
""",
    'cypair hodge': """\
usage: cypair hodge [-h] {bundle,blowup,correction,ledger} ...

positional arguments:
  {bundle,blowup,correction,ledger}
    bundle              projective bundle diamond
    blowup              blow-up diamond
    correction          normalization correction term
    ledger              determinant-line exponent identities

options:
  -h, --help            show this help message and exit
""",
    'cypair hodge bundle': """\
usage: cypair hodge bundle [-h] --base BASE --fiber-dim FIBER_DIM [--json]
                           [--out PATH]

options:
  -h, --help            show this help message and exit
  --base BASE           builtin name (point, cpN) or diamond JSON file
  --fiber-dim FIBER_DIM
                        fiber dimension (base plus fiber at most 300)
  --json                emit the report as a single JSON document
  --out PATH            write the report to a file instead of stdout
""",
    'cypair hodge blowup': """\
usage: cypair hodge blowup [-h] --x X --y Y --codim CODIM [--json]
                           [--out PATH]

options:
  -h, --help     show this help message and exit
  --x X          ambient diamond (name or file)
  --y Y          center diamond (name or file)
  --codim CODIM  codimension of the center (at most 40 digits)
  --json         emit the report as a single JSON document
  --out PATH     write the report to a file instead of stdout
""",
    'cypair hodge correction': """\
usage: cypair hodge correction [-h] --diamond DIAMOND [--json] [--out PATH]

options:
  -h, --help         show this help message and exit
  --diamond DIAMOND  diamond (name or file)
  --json             emit the report as a single JSON document
  --out PATH         write the report to a file instead of stdout
""",
    'cypair hodge ledger': """\
usage: cypair hodge ledger [-h] (--diamond DIAMOND | --random COUNT)
                           [--seed SEED] [--json] [--out PATH]

options:
  -h, --help         show this help message and exit
  --diamond DIAMOND  diamond (name or file)
  --random COUNT     check COUNT random symmetric diamonds instead (at most
                     10000); the identities depend on the dimension alone, so
                     every seed gives the same report
  --seed SEED        seed for --random (default 7)
  --json             emit the report as a single JSON document
  --out PATH         write the report to a file instead of stdout
""",
}
