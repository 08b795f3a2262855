"""RFC 1071 Internet checksum and pseudo-header helpers.

The checksum is the real ones-complement algorithm over real header
bytes; payload contributions come from the payload object so that
zero-filled bulk payloads cost O(1).

:func:`ones_complement_sum` folds whole words via ``int.from_bytes``:
interpret the buffer as one big-endian integer and reduce it modulo
0xFFFF (2**16 ≡ 1 (mod 65535), so the residue *is* the end-around-
carry sum of the 16-bit words, with residue 0 of a non-zero total
rendered as 0xFFFF exactly like a carry loop renders it).  The
byte-pair loop it is checked against is ``ones_complement_sum_ref`` in
``tests/reference_paths.py``.

:func:`incremental_update` is the RFC 1624 (eqn. 3) delta update used
when a single header word changes in flight (ECN CE marking), so
forwarding does not recompute whole-header checksums.
"""

from __future__ import annotations


def ones_complement_sum(data: bytes, initial: int = 0) -> int:
    """Return the running 16-bit ones-complement sum (not inverted)."""
    if len(data) & 1:
        # Odd tail byte occupies the high half of its word (big-endian).
        total = initial + (int.from_bytes(data, "big") << 8)
    else:
        total = initial + int.from_bytes(data, "big")
    if total == 0:
        return 0
    residue = total % 0xFFFF
    return residue if residue else 0xFFFF


def finish(acc: int) -> int:
    """Invert a running sum into the checksum field value."""
    value = (~acc) & 0xFFFF
    return value


def checksum(data: bytes) -> int:
    """One-shot internet checksum of ``data``."""
    return finish(ones_complement_sum(data))


def combine(*sums: int) -> int:
    """Combine running (non-inverted) sums."""
    acc = 0
    for s in sums:
        acc += s
        while acc >> 16:
            acc = (acc & 0xFFFF) + (acc >> 16)
    return acc


def subtract(acc: int, value: int) -> int:
    """Ones-complement subtraction: remove ``value`` from a running sum.

    Lets a verifier compute "the sum as if a field were zero" without
    mutating the header: ``subtract(sum_with_field, field)``.
    """
    return combine(acc, (~value) & 0xFFFF)


def incremental_update(old_checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 eqn. 3: new checksum after one 16-bit word changes.

    ``HC' = ~(~HC + ~m + m')`` — equal to a full recompute for any
    header whose word sum is non-zero (always true of real headers).
    """
    acc = ((~old_checksum) & 0xFFFF) + ((~old_word) & 0xFFFF) + (new_word & 0xFFFF)
    while acc >> 16:
        acc = (acc & 0xFFFF) + (acc >> 16)
    return (~acc) & 0xFFFF


# -- pseudo headers ---------------------------------------------------------
#
# The address contribution dominates the pseudo-header sum and never
# changes for a given flow, so it is memoized keyed on the packed
# address pair.  The caches are tiny (one entry per address pair seen)
# but bounded anyway so pathological many-address runs cannot leak.

_ADDR_SUM_CACHE: dict = {}
_ADDR_SUM_CACHE_MAX = 4096


def _addr_pair_sum(src: bytes, dst: bytes) -> int:
    key = (src, dst)
    cached = _ADDR_SUM_CACHE.get(key)
    if cached is None:
        if len(_ADDR_SUM_CACHE) >= _ADDR_SUM_CACHE_MAX:
            _ADDR_SUM_CACHE.clear()
        cached = ones_complement_sum(src + dst)
        _ADDR_SUM_CACHE[key] = cached
    return cached


def _fold(acc: int) -> int:
    while acc >> 16:
        acc = (acc & 0xFFFF) + (acc >> 16)
    return acc


def pseudo_header_v6(src: bytes, dst: bytes, upper_len: int, next_header: int) -> int:
    """Running sum of the IPv6 pseudo-header (RFC 8200 §8.1)."""
    if len(src) != 16 or len(dst) != 16:
        raise ValueError("IPv6 addresses must be 16 bytes")
    return _fold(_addr_pair_sum(src, dst)
                 + (upper_len >> 16) + (upper_len & 0xFFFF) + next_header)


def pseudo_header_v4(src: bytes, dst: bytes, upper_len: int, protocol: int) -> int:
    """Running sum of the IPv4 pseudo-header (RFC 793 §3.1)."""
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("IPv4 addresses must be 4 bytes")
    return _fold(_addr_pair_sum(src, dst) + protocol + (upper_len & 0xFFFF))
