"""The structure fingerprint every checkpoint version is stamped with."""

from repro.nn.models import build_lenet, build_mlp
from repro.nn.serialize import structure_fingerprint


class TestCheckpoint:
    def test_fingerprint_stability(self):
        assert structure_fingerprint(build_lenet(seed=1)) == structure_fingerprint(
            build_lenet(seed=2)
        )

    def test_fingerprint_distinguishes_architectures(self):
        assert structure_fingerprint(build_lenet()) != structure_fingerprint(build_mlp())


