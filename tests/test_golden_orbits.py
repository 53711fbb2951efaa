"""Golden digests of the orbit enumerators' full output.

The three digests below were computed with the code as it stood before
the rotation, twisted and composition enumerators were merged into one
orbit walk, before ``necklaces.py`` was touched.  They pin every record
and the order in which records come out, so a change to the walk that
alters any field, or the ordering, fails here.
"""

import hashlib
import json

from gwbinom.necklaces import enumerate_twisted_orbits, orbit_catalog
from gwbinom.partitions import cyclic_composition_classes

CATALOG_SHA256 = "01adb60f9d705d12d731cf8ddb66c15472927622bb8cc6899d1fdecfd4f7b022"
TWISTED_SHA256 = "7131d112af3b582afc11e8a78c59d6094e7d61170f3afb34d9051d446824d2c9"
COMPOSITIONS_SHA256 = "d4811ade9445948608adbc969bdaf78a4e933caf5484fb8f14f4bd75729df695"


def test_catalog_digest_n_le_16():
    h = hashlib.sha256()
    for n in range(1, 17):
        for j in range(n + 1):
            h.update(json.dumps(orbit_catalog(n, j, classify=n % 2 == 0)).encode())
    assert h.hexdigest() == CATALOG_SHA256


def test_twisted_digest_j_le_9():
    records = [
        [(r.canonical.blues, r.twisted_period, r.swap_fixed) for r in enumerate_twisted_orbits(j)]
        for j in range(1, 10)
    ]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == TWISTED_SHA256


def test_composition_classes_digest_j_le_12():
    classes = [cyclic_composition_classes(j) for j in range(1, 13)]
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == COMPOSITIONS_SHA256
