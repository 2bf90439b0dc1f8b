import json

import pytest

from fingerprint import FINGERPRINTS, fingerprint, run_defaults

# A float statistic may move by this much times its column's sum |x|: a BLAS
# kernel that rounds differently on another CPU stays inside it, a real change not.
FLOAT_RTOL = 1e-12


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("defaults")
    return {name: fingerprint(path) for name, path in run_defaults(out).items()}


RECORDED = json.loads(FINGERPRINTS.read_text())["files"]


def test_every_default_csv_has_a_fingerprint(fresh):
    assert sorted(fresh) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_default_csv_matches_its_fingerprint(fresh, name):
    got, want = fresh[name], RECORDED[name]
    for key in ("header", "rows", "kinds", "exact_sha256"):
        assert got[key] == want[key], key
    assert sorted(got["floats"]) == sorted(want["floats"])
    for column, stats in want["floats"].items():
        bound = FLOAT_RTOL * stats["abs_sum"]
        for stat, value in stats.items():
            moved = abs(got["floats"][column][stat] - value)
            assert moved <= bound, (column, stat, moved)  # a NaN fails too
