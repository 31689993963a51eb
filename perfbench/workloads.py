"""Seeded job lists for the vermaspin benchmark, and the checks each report must pass.

A workload is a fixed list of slots.  Each slot holds a pool of CLI argument
lists that cost the same: the pool varies the signature (p, q) at fixed n
and, for generic twists and scan grids, a twist that changes the numbers
but not where singular vectors appear.  A seed picks one entry per slot, so
a new seed changes the inputs while the count of jobs per (n, case), the
matrix sizes and the degrees that hold singular vectors stay the same.
Every job a seed can produce is listed by :func:`all_jobs`, which is how the
recorded report digests cover every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# Signatures (p, q) with p >= q for each n = p + q.
SIGNATURES = {
    3: [(3, 0), (2, 1)],
    4: [(4, 0), (3, 1), (2, 2)],
    5: [(5, 0), (4, 1), (3, 2)],
    6: [(6, 0), (5, 1), (4, 2), (3, 3)],
}

# Theorem twists that are neither twistor (lambda - 1/2 natural) nor
# Dirac-power (lambda + n/2 - 1/2 natural) for any n.
GENERIC_TWISTS = ["1/5", "-2/7", "3/7", "-4/9", "5/11"]

# One twist per special case: the degree that holds the singular vector
# fixes the cost, so the pool varies only the signature.
SPECIAL_TWISTS = {
    (3, "twistor"): "5/2",       # X^0 M_2 at degree 2
    (3, "dirac-power"): "1",     # X^3 M_0 at degree 3
    (4, "both"): "3/2",          # X^0 M_1 at degree 1 and X^5 M_0 at degree 5
    (4, "dirac-power"): "1/2",   # X^3 M_0 at degree 3
    (5, "twistor"): "3/2",       # X^0 M_1 at degree 1
    (5, "dirac-power"): "-1",    # X^1 M_0 at degree 1
}

# Scan grids step by 1/2 from a start with denominator 7, so no grid point
# is a special twist and every point after the first runs on a warm cache.
SCAN_STARTS = ["-20/7", "-19/7", "-18/7", "-17/7", "-16/7", "-15/7"]


def _sig_args(p, q):
    return ["--p", str(p), "--q", str(q)]


def _classify(n, case, dmax):
    twists = GENERIC_TWISTS if case == "generic" else [SPECIAL_TWISTS[n, case]]
    return [["classify", *_sig_args(p, q), "--lambda", t, "--dmax", str(dmax)]
            for p, q in SIGNATURES[n] for t in twists]


def _scan(n, points, dmax):
    out = []
    for p, q in SIGNATURES[n]:
        for start in SCAN_STARTS:
            num, den = (int(x) for x in start.split("/"))
            end = "%d/%d" % (num * 2 + (points - 1) * den, den * 2)
            out.append(["scan", *_sig_args(p, q), "--lambda-grid",
                        "%s..%s:1/2" % (start, end), "--dmax", str(dmax),
                        "--format", "json"])
    return out


def _fischer(n, dmax):
    return [["fischer", *_sig_args(p, q), "--dmax", str(dmax)] for p, q in SIGNATURES[n]]


def _intertwiner(n, kind, a, test_degree):
    return [["intertwiner", *_sig_args(p, q), "--kind", kind, "--a", str(a),
             "--test-degree", str(test_degree)] for p, q in SIGNATURES[n]]


# workload -> list of slots; each slot is the pool one job is drawn from.
WORKLOADS = {
    # Independent classify calls, each with a fresh Context: assembly and
    # the mod-p certificate dominate, elimination runs at the special twists.
    "classify-cold": [
        _classify(3, "generic", 6),
        _classify(3, "twistor", 6),
        _classify(3, "dirac-power", 6),
        _classify(4, "generic", 6),
        _classify(4, "both", 6),
        _classify(4, "dirac-power", 6),
        _classify(5, "generic", 5),
        _classify(5, "twistor", 5),
        _classify(5, "dirac-power", 5),
        _classify(6, "generic", 5),
    ],
    # Long scans sharing one Context per grid: assembly is cached after the
    # first twist, so the certificate and lambda-scaling dominate.
    "scan-warm": [
        _scan(4, 12, 6),
        _scan(5, 6, 5),
    ],
    # Monogenic bases at n = 6: exact elimination without the certificate.
    "fischer-n6": [
        _fischer(6, 5),
        _fischer(6, 3),
    ],
    # Operator construction and the exact intertwining check: sparse
    # products and operator matrices, no certificate.
    "intertwine": [
        _intertwiner(4, "dirac", 1, 3),
        _intertwiner(4, "twistor", 1, 3),
        _intertwiner(4, "twistor", 2, 3),
        _intertwiner(5, "dirac", 1, 3),
        _intertwiner(5, "twistor", 1, 3),
        _intertwiner(5, "dirac", 3, 3),
    ],
}


def jobs(workload, seed):
    """The job list of a workload for a seed: one argv list per slot."""
    rng = random.Random("%s/%d" % (workload, seed))
    return [list(rng.choice(slot)) for slot in WORKLOADS[workload]]


def all_jobs(workload):
    """Every job any seed can draw for the workload, in slot order."""
    return [list(job) for slot in WORKLOADS[workload] for job in slot]


def job_key(argv):
    return " ".join(argv)


def load_references():
    """job key -> sha256 of the report recorded at the seed commit."""
    with open(REFERENCES) as fh:
        return json.load(fh)["digests"]


_GENERATED_AT = re.compile(r'^\s*"generated_at": "[^"]*",?\n', re.M)


def report_digest(text):
    """sha256 of the report bytes with the generated_at line removed."""
    return hashlib.sha256(_GENERATED_AT.sub("", text).encode()).hexdigest()


def self_check(argv, code, text):
    """None if the report passes its own check, else the reason it fails."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        payload = json.loads(text)
    except ValueError:
        return "report is not JSON"
    command = argv[0]
    if command == "classify" and payload.get("match") is not True:
        return "classify: match is not true"
    if command == "scan" and payload.get("all_match") is not True:
        return "scan: all_match is not true"
    if command == "intertwiner" and payload.get("residual_zero") is not True:
        return "intertwiner: residual_zero is not true"
    if command == "fischer":
        n = payload["n"]
        spinor_dim = 2 ** (n // 2)
        dims = [s["dim"] for s in payload["spaces"]]
        want = [math.comb(m + n - 2, n - 2) * spinor_dim for m in range(len(dims))]
        if dims != want:
            return "fischer: dims %s, expected %s" % (dims, want)
    return None
