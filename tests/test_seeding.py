import hashlib

import numpy as np

from anchoragg.seeding import stream_rng, stream_seed, token_streams


def seed_sequence_by_hand(root_seed, *keys) -> np.random.SeedSequence:
    """The documented stream identity, built directly: the root seed, then
    two 32-bit words per int key and the first four little-endian words of
    the SHA-256 of each string key."""
    entropy = [root_seed & 0xFFFFFFFFFFFFFFFF]
    for key in keys:
        if isinstance(key, int):
            entropy += [key & 0xFFFFFFFF, (key >> 32) & 0xFFFFFFFF]
        else:
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            entropy += [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence(entropy)


class TestStreams:
    def test_streams_equal_direct_seed_sequence(self):
        r = np.random.default_rng(0)
        # many distinct strings, each used more than once
        docs = [f"doc-{j}-{'é' * int(r.integers(0, 3))}" for j in range(6000)]
        for _ in range(12_000):
            root = int(r.integers(0, 2**63))
            keys = ["perturb", docs[int(r.integers(0, len(docs)))],
                    int(r.integers(0, 2**40))]
            expected = seed_sequence_by_hand(root, *keys)
            assert stream_seed(root, *keys).entropy == expected.entropy
            ours = stream_rng(root, *keys)
            theirs = np.random.Generator(np.random.PCG64(expected))
            assert ours.random() == theirs.random()


class TestTokenStreams:
    ROOTS = (0, 1, 7, 2**32 - 1, 2**32, 2**63, -1, 2**64 + 5, np.int64(7))
    DOC_IDS = ("", "doc-17", "dóc 文書 ✓", "x" * 200)
    POSITIONS = (*range(501), 2**31, 2**32 + 3)

    def test_equal_stream_rng_of_each_position(self):
        """A document's shared seed prefix gives each position the generator
        ``stream_rng(root, "perturb", doc, position)`` builds: the same state
        and the same draws."""
        for root in self.ROOTS:
            for doc_id in self.DOC_IDS:
                rng_for = token_streams(root, doc_id)
                for pos in self.POSITIONS:
                    ours, theirs = rng_for(pos), stream_rng(root, "perturb", doc_id, pos)
                    assert ours.bit_generator.state == theirs.bit_generator.state
                    assert ours.random(3).tolist() == theirs.random(3).tolist()
                    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)
                    assert ours.bit_generator.state == theirs.bit_generator.state
