"""The word-folding checksum against the byte-pair oracle.

``ones_complement_sum`` interprets the buffer as one big integer and
reduces it mod 0xFFFF; these tests pin the tricky edges (odd tails,
all-zero buffers, the 0 vs 0xFFFF residue rendering) and cross-check it
against the reference loop in ``tests/reference_paths.py`` —
exhaustively on small inputs and property-based via Hypothesis when it
is installed.
"""

import struct

import pytest

from reference_paths import (ones_complement_sum_ref, pseudo_header_v4_ref,
                             pseudo_header_v6_ref)
from repro.net.checksum import (checksum, combine, finish,
                                incremental_update, ones_complement_sum,
                                pseudo_header_v4, pseudo_header_v6, subtract)


class TestOddTail:
    def test_odd_tail_byte_is_big_endian_high_half(self):
        # RFC 1071: a trailing odd byte is padded with zeros on the
        # right, i.e. it contributes <byte> << 8, not <byte>.
        assert ones_complement_sum(b"\xab") == 0xAB00
        assert ones_complement_sum_ref(b"\xab") == 0xAB00

    def test_odd_length_matches_naive(self):
        data = bytes(range(1, 60))  # 59 bytes, odd
        assert ones_complement_sum(data) == ones_complement_sum_ref(data)

    def test_even_then_odd_boundary(self):
        for n in range(0, 9):
            data = bytes([0x5A] * n)
            assert ones_complement_sum(data) == \
                ones_complement_sum_ref(data), n

    def test_empty(self):
        assert ones_complement_sum(b"") == 0

    def test_all_zero_stays_zero(self):
        # A zero sum must render as 0, not 0xFFFF (the residue-0 case
        # only maps to 0xFFFF for a non-zero total).
        assert ones_complement_sum(bytes(64)) == 0

    def test_residue_zero_nonzero_total_renders_ffff(self):
        # 0xFFFF + 0x0000 folds to residue 0 with a non-zero total.
        assert ones_complement_sum(b"\xff\xff") == 0xFFFF
        assert ones_complement_sum_ref(b"\xff\xff") == 0xFFFF

    def test_initial_accumulator(self):
        data = b"\x12\x34\x56"
        for init in (0, 1, 0xFFFF, 0x1234):
            assert ones_complement_sum(data, init) == \
                ones_complement_sum_ref(data, init)


class TestExhaustiveSmall:
    def test_all_two_byte_buffers_sampled(self):
        for hi in range(0, 256, 17):
            for lo in range(0, 256, 13):
                data = bytes([hi, lo])
                assert ones_complement_sum(data) == \
                    ones_complement_sum_ref(data)


class TestIncrementalUpdate:
    def test_matches_full_recompute(self):
        # A real IPv4-style header: change one word, patch the checksum.
        head = bytearray(struct.pack("!BBHHHBBH", 0x45, 0, 40, 7, 0x4000,
                                     64, 6, 0))
        head += bytes([10, 0, 0, 1, 10, 0, 0, 2])
        old_csum = checksum(bytes(head))
        struct.pack_into("!H", head, 10, old_csum)
        # Flip the TTL/protocol word (offset 8).
        old_word = (head[8] << 8) | head[9]
        new_word = ((64 - 1) << 8) | head[9]
        patched = incremental_update(old_csum, old_word, new_word)
        head[8] = 63
        struct.pack_into("!H", head, 10, 0)
        assert patched == checksum(bytes(head))

    def test_subtract_then_combine_roundtrip(self):
        data = b"\xde\xad\xbe\xef\x12\x34"
        acc = ones_complement_sum(data)
        removed = subtract(acc, 0x1234)
        assert combine(removed, 0x1234) == acc

    def test_finish_inverts(self):
        assert finish(0x0000) == 0xFFFF
        assert finish(0xFFFF) == 0x0000


class TestPseudoHeaders:
    def test_v4_matches_packed_reference(self):
        src, dst = bytes([10, 1, 2, 3]), bytes([10, 4, 5, 6])
        assert pseudo_header_v4(src, dst, 1234, 6) == \
            pseudo_header_v4_ref(src, dst, 1234, 6)

    def test_v6_matches_packed_reference(self):
        src, dst = bytes(range(16)), bytes(range(16, 32))
        assert pseudo_header_v6(src, dst, 99999, 6) == \
            pseudo_header_v6_ref(src, dst, 99999, 6)

    def test_v6_cache_consistent_across_lengths(self):
        # The memoized address-pair sum must not leak between calls with
        # different upper lengths.
        src, dst = bytes(16), bytes([1] * 16)
        for upper in (0, 1, 0xFFFF, 0x10000, 0x12345):
            assert pseudo_header_v6(src, dst, upper, 17) == \
                pseudo_header_v6_ref(src, dst, upper, 17)


class TestPropertyBased:
    def test_fast_equals_naive_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, deadline=None)
        @given(data=st.binary(min_size=0, max_size=257),
               init=st.integers(min_value=0, max_value=0xFFFF))
        def check(data, init):
            assert ones_complement_sum(data, init) == \
                ones_complement_sum_ref(data, init)

        check()

    def test_incremental_update_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, deadline=None)
        @given(words=st.lists(st.integers(0, 0xFFFF), min_size=2,
                              max_size=20),
               idx=st.integers(0, 19),
               new_word=st.integers(0, 0xFFFF))
        def check(words, idx, new_word):
            idx %= len(words)
            data = b"".join(struct.pack("!H", w) for w in words)
            old_csum = checksum(data)
            patched = incremental_update(
                old_csum, words[idx], new_word)
            words[idx] = new_word
            new_data = b"".join(struct.pack("!H", w) for w in words)
            # RFC 1624 eqn. 3 agrees with a recompute whenever the
            # recomputed checksum is not 0xFFFF (the -0/+0 ambiguity).
            full = checksum(new_data)
            if full != 0xFFFF:
                assert patched == full

        check()
