"""Golden identity of the routing set-up: design generation and GR guides.

Every digest below is a sha256 over the serialised design
(:func:`repro.io.json_io.design_to_dict`), each routable net's sorted
guide cells from the default :class:`GlobalRouter`, and the router's final
GCell overflow.  The digests were recorded from the generator and global
router *before* their set-up paths were made linear, so any change that
reorders a shuffle, a neighbourhood scan or a heap tie shows up here, not
only as a same-process determinism failure.
"""

import hashlib
import json

import pytest

from repro.bench.suites import suite_case
from repro.gr import GlobalRouter
from repro.io.json_io import design_to_dict


def setup_digest(design) -> str:
    """Return the golden digest of *design* plus its default GR guides."""
    router = GlobalRouter(design)
    guides = router.route()
    digest = hashlib.sha256()
    digest.update(json.dumps(design_to_dict(design), sort_keys=True).encode())
    for net in design.routable_nets():
        guide = guides.guide_of(net.name)
        cells = sorted((c.layer, c.gx, c.gy) for c in guide.cells)
        digest.update(repr((net.name, cells)).encode())
    digest.update(repr(router.gcell_grid.total_overflow()).encode())
    return digest.hexdigest()[:20]


#: (suite, case number, scale) -> digest.  Scale 1.0 covers every suite
#: case; the scale-2.0 entries are the end-to-end benchmark's designs.
GOLDEN = {
    ("ispd18", 1, 1.0): "0ac7b5f3f87d733e33a6",
    ("ispd18", 2, 1.0): "d33be918706276e2d400",
    ("ispd18", 3, 1.0): "2aac3f6814259f0a2f59",
    ("ispd18", 4, 1.0): "cd201d94adc39e5324e9",
    ("ispd18", 5, 1.0): "f66b59b12e9e29aa00d8",
    ("ispd18", 6, 1.0): "b8a21c5a735c5bca0948",
    ("ispd18", 7, 1.0): "1841c3c92655e1c3313b",
    ("ispd18", 8, 1.0): "2b5d2dfa74ce6161667e",
    ("ispd18", 9, 1.0): "e50a91d68aa109b223f4",
    ("ispd18", 10, 1.0): "99a88958b8a2f7b48bca",
    ("ispd19", 1, 1.0): "6da6690440df3fcb5815",
    ("ispd19", 2, 1.0): "54cd349723580248d483",
    ("ispd19", 3, 1.0): "baa2743d8802d0f326c6",
    ("ispd19", 4, 1.0): "d8a8d8d3ba0de3bc4eca",
    ("ispd19", 5, 1.0): "0626705060ca693721ae",
    ("ispd19", 6, 1.0): "f689938073b2f19e3fef",
    ("ispd19", 7, 1.0): "6ed4bcae49fb0dda0fa4",
    ("ispd19", 8, 1.0): "02d9a96d35ef5c990596",
    ("ispd19", 9, 1.0): "8640f7bf5dcbd468deae",
    ("ispd19", 10, 1.0): "ed96068b3f38a1a0716a",
    ("sparse", 1, 1.0): "c6c8b42140fdb0b76e7d",
    ("sparse", 2, 1.0): "4ec8cbfea6db0fd73edb",
    ("sparse", 3, 1.0): "44f2f98ebd50b0f1a80c",
    ("ispd18", 3, 2.0): "bfaa2fcbad99b55dee87",
    ("ispd19", 2, 2.0): "4979f8cfd633dd736d62",
}


@pytest.mark.parametrize(
    "suite,number,scale", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_setup_matches_golden_digest(suite, number, scale):
    design = suite_case(suite, number, scale).build()
    assert setup_digest(design) == GOLDEN[(suite, number, scale)]


def test_golden_covers_every_suite_case_and_benchmark_design():
    expected = {("ispd18", n, 1.0) for n in range(1, 11)}
    expected |= {("ispd19", n, 1.0) for n in range(1, 11)}
    expected |= {("sparse", n, 1.0) for n in range(1, 4)}
    expected |= {("ispd18", 3, 2.0), ("ispd19", 2, 2.0)}
    assert set(GOLDEN) == expected
