"""Fixed-seed fingerprint of the matching decoder's output.

One sha256 over ``(L, sector, anyons, sorted correction edges, method)`` for
a set of random syndromes that covers the exact subset DP (k <= 12) and the
greedy fallback (k > 12) on both sectors.  Any change to the pairing, its
tie-breaks or the geodesic choice changes the digest, so a rewrite of the
decoder's hot path must leave it untouched.
"""

import hashlib

import numpy as np

from memlab.decoder import decode_matching
from memlab.lattice import Syndrome

EXPECTED = "08f6e9977ebbaea2156743de3e4f24e72a93792287a496cb5050e6262284124b"


def _cases():
    rng = np.random.default_rng(2024)
    for L in (3, 5, 8, 16):
        for sector in ("plaquette", "star"):
            for k in range(0, min(44, L * L) + 1, 2):
                for _ in range(3):
                    anyons = sorted(rng.choice(L * L, size=k, replace=False).tolist())
                    yield L, sector, anyons


def test_decoder_output_fingerprint():
    h = hashlib.sha256()
    methods = set()
    for L, sector, anyons in _cases():
        corr = decode_matching(Syndrome(frozenset(anyons), sector), L)
        methods.add(corr.method)
        h.update(repr((L, sector, anyons, sorted(corr.edges), corr.method)).encode())
    assert methods == {"exact", "greedy"}
    assert h.hexdigest() == EXPECTED
