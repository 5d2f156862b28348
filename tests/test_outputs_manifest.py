"""Byte identity of every output against the committed manifest.

The commands, inputs and fingerprint are described in ``outputs_manifest.py``,
which also regenerates the manifest. Under a fingerprint other than the
recorded one (another numpy or scipy version, or other SIMD extensions), the
outputs are not comparable: the test is then skipped with that reason, and
it says nothing about whether they match.
"""

import json

import pytest

from outputs_manifest import MANIFEST, fingerprint, output_hashes


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if fingerprint() != manifest["fingerprint"]:
        pytest.skip(f"outputs not comparable: recorded under {manifest['fingerprint']}, "
                    f"running under {fingerprint()}")
    got, want = output_hashes(tmp_path), manifest["files"]
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"{len(changed)} of {len(want)} files differ from the manifest: {changed}"
