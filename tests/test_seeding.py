import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchoragg.seeding as seeding
from anchoragg.corpus import Document
from anchoragg.seeding import (_Seeded, _seed_states, _token_seeds, stream_rng,
                               stream_seed, token_streams)


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


WORD = st.one_of(st.sampled_from([0, 1, 0xFFFFFFFF]), st.integers(0, 2**32 - 1))


class TestSeedStates:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([11, 12]).flatmap(
        lambda width: st.lists(st.lists(WORD, min_size=width, max_size=width),
                               min_size=1, max_size=12)))
    def test_equals_seed_sequence_of_each_row(self, rows):
        """The vectorized hash gives every row of the entropy matrix, at the
        widths a token's words take (one or two root words), the state
        ``SeedSequence`` generates from that row."""
        entropy = np.array(rows, dtype=np.uint32)
        states = _seed_states(entropy)
        assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
        for row, state in zip(entropy, states):
            expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
            assert state.tolist() == expected.tolist()

    def test_column_major_entropy_reads_the_same(self):
        entropy = np.arange(5 * 11, dtype=np.uint32).reshape(5, 11) * 0x9E3779B9
        assert np.array_equal(_seed_states(np.asfortranarray(entropy)),
                              _seed_states(entropy))


class TestTokenStreams:
    ROOTS = (0, 1, 7, 2**32 - 1, 2**32, 2**63, -1, 2**64 + 5, np.int64(7))
    DOC_IDS = ("", "doc-17", "dóc 文書 ✓", "x" * 200)
    POSITIONS = (*range(501), 2**31, 2**32 + 3)

    @staticmethod
    def _assert_same_stream(ours, theirs):
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random(3).tolist() == theirs.random(3).tolist()
        assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_equal_stream_rng_of_each_position(self):
        """One table seeds every position of every document: each position's
        generator is the one ``stream_rng(root, "perturb", doc, position)``
        builds, the same state and the same draws. Positions beyond any
        document's length go to the table directly."""
        docs = [Document(doc_id, ("w",) * 501, "") for doc_id in self.DOC_IDS]
        beyond = [p for p in self.POSITIONS if p >= 501]
        doc_of = np.repeat(np.arange(len(docs)), len(beyond))
        for root in self.ROOTS:
            streams = token_streams(root, docs)
            assert len(streams) == len(docs)
            for doc, rng_for in zip(docs, streams):
                for pos in range(len(doc.words)):
                    self._assert_same_stream(rng_for(pos),
                                             stream_rng(root, "perturb", doc.id, pos))
            seeds = _token_seeds(root, self.DOC_IDS, doc_of, beyond * len(docs))
            for (i, pos), seed in zip([(i, p) for i in range(len(docs)) for p in beyond],
                                      seeds):
                self._assert_same_stream(
                    np.random.Generator(np.random.PCG64(_Seeded(seed))),
                    stream_rng(root, "perturb", self.DOC_IDS[i], pos))

    def test_documents_of_every_length(self):
        """Empty documents take no rows, and each lookup answers only for
        its own document's positions."""
        docs = [Document("a", ("x", "y"), ""), Document("empty", (), ""),
                Document("b", ("z",), "")]
        a, empty, b = token_streams(5, docs)
        self._assert_same_stream(b(0), stream_rng(5, "perturb", "b", 0))
        self._assert_same_stream(a(1), stream_rng(5, "perturb", "a", 1))
        for rng_for, position in ((a, 2), (a, -1), (empty, 0), (b, 1)):
            with pytest.raises(IndexError):
                rng_for(position)
        assert token_streams(5, []) == []

    def test_blocks_of_rows_hash_alike(self, monkeypatch):
        """The table is hashed in blocks of rows; a block boundary inside a
        document changes no seed."""
        doc_ids = ["a", "b", "c"]
        doc_of = np.repeat(np.arange(3), 20)
        positions = np.tile(np.arange(20), 3)
        whole = _token_seeds(2**40 + 3, doc_ids, doc_of, positions)
        monkeypatch.setattr(seeding, "_BLOCK_ROWS", 7)
        assert np.array_equal(_token_seeds(2**40 + 3, doc_ids, doc_of, positions), whole)

    def test_changed_hash_constant_fails_loudly(self, monkeypatch):
        """A vectorized hash that disagrees with numpy's ``SeedSequence``
        stops the run: streams must never drift silently."""
        docs = [Document("doc", ("w",) * 3, "")]
        token_streams(7, docs)
        monkeypatch.setattr(seeding, "MULT_A", seeding.MULT_A ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            token_streams(7, docs)
