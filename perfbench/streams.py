"""Seeded request streams for the calc-requests and verify-requests workloads.

Both streams are made of blocks.  A block holds one request per cell of a
fixed design, in an order the seed shuffles, so every block does a
comparable amount of work and the figures of runs on different seeds
compare.  The seed chooses everything inside a cell.

* calc-requests: a cell is (command, order k, lambda class, index
  centre) for ``numbers`` and ``poly``, and (k, lambda class, degree) for
  ``expand``: the properties that set a request's cost.  Each cell has
  ``CALC_VARIANTS`` recorded variants (family, lambda within its class,
  index near the centre, coefficients, format); the seed picks one per
  cell and block.  Every variant's output digest is recorded in
  ``digests.json``.
* verify-requests: a cell is (max-n, max-k).  Its identities are grouped
  into requests of one to three by fixed shapes over cost tiers, heavy
  identities alone; the seed picks which identity of a tier fills each
  place and each request's format.  Every block verifies each (identity,
  max-n, max-k) once.

Only valid requests are emitted: lambda and coefficient lists are passed
as ``--flag=value`` (argparse reads a bare ``-3,1`` as a flag), the Euler
family never gets lambda = -1, identities whose order range starts at 1
never meet ``--max-k 0``, and max-n starts at 2, where every identity's
index range is non-empty.
"""

from __future__ import annotations

import random
from typing import List, Tuple

FORMATS = ("text", "json", "csv", "latex")
FAMILIES = ("apostol-bernoulli", "apostol-euler")

# The identity catalog in report order.
IDENTITIES = (
    "ID_DERIV",
    "ID_DIFF",
    "ID_LOWER_ORDER",
    "ID_ZERO_ORDER",
    "ID_LEMMA_CLOSED_FORM",
    "ID_THM1",
    "ID_COR_XN",
    "ID_THM2",
    "ID_THM3",
    "ID_HANSEN",
    "ID_EULER_RAMANUJAN",
    "ID_THM4",
    "ID_DILCHER",
    "ID_THM5",
)
# Order ranges start at 1: "--max-k 0" leaves them an empty grid.
ORDER_FROM_ONE = ("ID_DIFF", "ID_LOWER_ORDER")

CALC_VARIANTS = 12
# Lambda classes differ in cost: at lambda = +-1 a table takes about half
# as long as at the other rational values, and symbolic lambda far longer.
LAMBDA_CLASSES = {
    "symbolic": ("symbolic",),
    "unit": ("1", "-1"),
    "generic": ("2", "-2", "1/3", "3/2", "-1/2", "5/2"),
}
# Index centres per lambda class; the seed moves n by at most N_JITTER.
N_CENTRES = {
    "symbolic": (3, 9, 15),
    "unit": (20, 60, 100),
    "generic": (10, 30, 50, 70, 90, 110),
}
N_JITTER = {"symbolic": 1, "unit": 2, "generic": 2}
EXPAND_DEGREES = (1, 4, 7)
VERIFY_MAX_N = (2, 3, 4)
VERIFY_MAX_K = (0, 1, 2, 3)
# Identities by the cost of checking them (measured at max-n 5, max-k 3:
# heavy 0.4-1.6 s, medium 0.06-0.16 s, light under 0.04 s).
COST_TIERS = {
    "heavy": ("ID_THM1", "ID_THM4", "ID_THM5"),
    "medium": ("ID_DERIV", "ID_DIFF", "ID_LOWER_ORDER", "ID_LEMMA_CLOSED_FORM",
               "ID_COR_XN", "ID_THM2", "ID_THM3"),
    "light": ("ID_ZERO_ORDER", "ID_HANSEN", "ID_EULER_RAMANUJAN", "ID_DILCHER"),
}
# How one (max-n, max-k) cell's identities are grouped into requests, by
# the number of medium identities left at that max-k.  Heavy identities
# are requested alone: the heavy requests make the latency tail, and the
# tail should not hinge on which identity the seed pairs them with.
REQUEST_SHAPES = {
    7: (("heavy",), ("heavy",), ("heavy",), ("medium", "medium", "light"),
        ("medium", "medium", "light"), ("medium", "medium"), ("medium", "light"), ("light",)),
    5: (("heavy",), ("heavy",), ("heavy",), ("medium", "medium", "light"),
        ("medium", "light"), ("medium", "light"), ("medium", "light")),
}

Request = Tuple[str, ...]


def calc_cells() -> List[tuple]:
    cells = []
    for command in ("numbers", "poly"):
        for k in range(5):
            for lam_class, centres in N_CENTRES.items():
                for n in centres:
                    cells.append((command, k, lam_class, n))
    for k in range(5):
        for lam_class in LAMBDA_CLASSES:
            for degree in EXPAND_DEGREES:
                cells.append(("expand", k, lam_class, degree))
    return cells


def _lambda(rng: random.Random, lam_class: str, family: str) -> str:
    choices = [v for v in LAMBDA_CLASSES[lam_class]
               if not (family == "apostol-euler" and v == "-1")]
    return rng.choice(choices)


def _coefficient(rng: random.Random) -> str:
    num = rng.choice([p for p in range(-9, 10) if p])
    den = rng.randint(1, 4)
    return str(num) if den == 1 else f"{num}/{den}"


def calc_request(cell: tuple, variant: int) -> Request:
    """The recorded request for one variant of one calc cell."""
    command, k, lam_class, size = cell
    rng = random.Random(f"calc/{command}/{k}/{lam_class}/{size}/{variant}")
    fmt = rng.choice(FORMATS)
    if command == "expand":
        coeffs = ",".join(_coefficient(rng) for _ in range(size + 1))
        lam = _lambda(rng, lam_class, "apostol-bernoulli")
        return (
            "expand", "--coeffs=" + coeffs, "--k", str(k),
            f"--lambda={lam}", "--format", fmt,
        )
    family = rng.choice(FAMILIES)
    lam = _lambda(rng, lam_class, family)
    jitter = N_JITTER[lam_class]
    n = size + rng.randint(-jitter, jitter)
    return (
        command, "--family", family, "--k", str(k), "--n", str(n),
        f"--lambda={lam}", "--format", fmt,
    )


def calc_pool() -> List[Request]:
    """Every request the calc stream can emit (the digest table's keys)."""
    return [calc_request(cell, v) for cell in calc_cells() for v in range(CALC_VARIANTS)]


def calc_block(seed: int, block: int) -> List[Request]:
    rng = random.Random(f"calc-block/{seed}/{block}")
    requests = [calc_request(cell, rng.randrange(CALC_VARIANTS)) for cell in calc_cells()]
    rng.shuffle(requests)
    return requests


def valid_identities(max_k: int) -> List[str]:
    return [i for i in IDENTITIES if not (max_k == 0 and i in ORDER_FROM_ONE)]


def verify_request(ids, max_n: int, max_k: int, fmt: str) -> Request:
    return (
        "verify", "--ids=" + ",".join(ids), "--max-n", str(max_n),
        "--max-k", str(max_k), "--format", fmt,
    )


def verify_params(argv: Request):
    """(identity names, max-n, max-k, format) of a request made by verify_request."""
    return (
        tuple(argv[1][len("--ids="):].split(",")), int(argv[3]), int(argv[5]), argv[7],
    )


def verify_block(seed: int, block: int) -> List[Request]:
    rng = random.Random(f"verify-block/{seed}/{block}")
    requests = []
    for max_n in VERIFY_MAX_N:
        for max_k in VERIFY_MAX_K:
            valid = valid_identities(max_k)
            tiers = {tier: [i for i in ids if i in valid] for tier, ids in COST_TIERS.items()}
            for ids in tiers.values():
                rng.shuffle(ids)
            shapes = REQUEST_SHAPES[len(tiers["medium"])]
            for shape in shapes:
                group = [tiers[tier].pop() for tier in shape]
                requests.append(verify_request(group, max_n, max_k, rng.choice(FORMATS)))
    rng.shuffle(requests)
    return requests


def block(workload: str, seed: int, index: int) -> List[Request]:
    if workload == "calc-requests":
        return calc_block(seed, index)
    if workload == "verify-requests":
        return verify_block(seed, index)
    raise ValueError(f"no request stream for workload {workload!r}")
