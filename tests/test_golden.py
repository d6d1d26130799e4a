"""SHA-256 digests of the FORMATS.md byte contracts at fixed inputs.

The digests were taken at commit c009e09; the niveau certificate's at
commit 43f2de3, before the complement route existed.  niveau.csv's was
retaken when ``theorem_bound`` began to floor a value within 2^-20 of 0
to 0 instead of refusing it: its four c = 3/4 rows gained
``theorem_bound`` 0 and ``bound_ok`` true, and no other byte changed.
A change that alters any certificate, F2SET file, counts CSV or sweep
CSV byte for the same inputs fails here.
"""

import hashlib

from popdiff.cli import main
from popdiff.f2n import linear_subspace, write_set

GOLDEN = {
    "cert_n12.json": "b478f1e183561ab63c6c0904d324318f1c8a33daf509250183ce506880f2b7d0",
    "hyperplane_n10.json": "23184d6accb25ed7d2704ffde3ba364e7f802811a48d6a7986a4608b34e30688",
    "niveau_n12.json": "31441eb332fcc073d476de1c686e3ada2702ff34ff460e142210810455a874e2",
    "D_n12.set": "a63501fe4ea2995a63558b7fc95b7121f8de1eab6b77eb2800122b257ea86af5",
    "counts_n12.csv": "311c2091227754ae4eac81d3195aeeba05685f153c5e1bb613b88b183336b507",
    "random.csv": "a2c87c7b77f6f6a29eca3c3b888f1a5a7f5aa3685d8bfa7aee846b26bda5cdc1",
    "niveau.csv": "2be08e3cf7540355f56514209df6efb5491a02e0b4ae2f13bdd9b5bca90fedb5",
}


def test_byte_contracts_match_golden_digests(tmp_path):
    def run(*args):
        assert main([str(arg) for arg in args]) == 0, args

    a = tmp_path / "A.set"
    run("gen", "--n", 12, "--family", "random", "--alpha", "1/2", "--seed", 7, "--out", a)
    run("construct", a, "--c", "1/16", "--seed", 7, "--out", tmp_path / "cert_n12.json")
    run("dcset", a, "--c", "1", "--out", tmp_path / "D_n12.set",
        "--counts-csv", tmp_path / "counts_n12.csv")
    h = tmp_path / "H.set"
    write_set(linear_subspace(10, [1 << i for i in range(9)]), h)
    run("construct", h, "--c", "1/2", "--seed", 3, "--lemma-trials", 20,
        "--out", tmp_path / "hyperplane_n10.json")
    # Wolf's niveau set: D_c(A) misses 13 points, so the stages count on
    # the complement route with work to do (test_construction pins that)
    nv = tmp_path / "N.set"
    run("gen", "--n", 12, "--family", "niveau", "--wmin", 7, "--out", nv)
    run("construct", nv, "--c", "1/4", "--seed", 7, "--out", tmp_path / "niveau_n12.json")
    run("sweep", "--n", "6,8", "--alpha", "1/2,1/3,1/4", "--c", "0,1/8,1/2,1", "--seeds", 2,
        "--out", tmp_path / "random.csv")
    run("sweep", "--n", "6,8", "--alpha", "1/4,1/2", "--c", "1/4,3/4", "--family", "niveau",
        "--out", tmp_path / "niveau.csv")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
