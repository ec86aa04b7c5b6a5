"""The canonical runs against their committed record (tests/golden; see repin.py there)."""

import pytest

from golden.repin import RUNS, capture, differences, load_record


@pytest.mark.parametrize("name", list(RUNS))
def test_canonical_run_matches_its_record(name, tmp_path):
    assert differences(load_record(name), capture(RUNS[name], tmp_path)) == []
