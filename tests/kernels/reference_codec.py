"""Pure-Python reference for the compressed backend's block codec.

Interpreted loops over ``array('q')``, written from the block format's
definition (frame-of-reference against the block's first pair,
zig-zag-coded column deltas packed at the narrowest of 0/1/2/4/8
bytes).  ``tests/kernels/test_compressed_backend.py`` checks that the
vectorized codec in :mod:`repro.kernels.compressed_backend` writes the
same bytes and that each side decodes the other's blocks.
"""

from array import array
from typing import List

from repro.kernels.compressed_backend import _HEADER, _width_for

_U64 = (1 << 64) - 1

# array typecodes by itemsize (platform itemsizes vary for 'I'/'L', so
# probe instead of hard-coding).
_CODE_FOR_WIDTH = {}
for _code in "BHILQ":
    _CODE_FOR_WIDTH.setdefault(array(_code).itemsize, _code)
del _code


def encode_block(flat, start: int, n_pairs: int) -> bytes:
    """Pairs ``start .. start + n_pairs`` of ``flat`` as one block."""
    first_s = int(flat[2 * start])
    first_o = int(flat[2 * start + 1])
    last_s = int(flat[2 * (start + n_pairs) - 2])
    last_o = int(flat[2 * (start + n_pairs) - 1])
    zs: List[int] = []
    zo: List[int] = []
    max_s = max_o = 0
    prev_s, prev_o = first_s, first_o
    for i in range(start + 1, start + n_pairs):
        s = int(flat[2 * i])
        o = int(flat[2 * i + 1])
        d = s - prev_s
        z = ((d << 1) ^ (d >> 63)) & _U64
        zs.append(z)
        max_s = max(max_s, z)
        d = o - prev_o
        z = ((d << 1) ^ (d >> 63)) & _U64
        zo.append(z)
        max_o = max(max_o, z)
        prev_s, prev_o = s, o
    width_s = 0 if max_s == 0 else _width_for(max_s)
    width_o = 0 if max_o == 0 else _width_for(max_o)
    parts = [
        _HEADER.pack(n_pairs, width_s, width_o, first_s, first_o, last_s, last_o)
    ]
    if width_s:
        parts.append(array(_CODE_FOR_WIDTH[width_s], zs).tobytes())
    if width_o:
        parts.append(array(_CODE_FOR_WIDTH[width_o], zo).tobytes())
    return b"".join(parts)


def decode_block(block) -> array:
    """The ``array('q')`` of pairs one encoded block holds."""
    n_pairs, width_s, width_o, first_s, first_o, _, _ = _HEADER.unpack_from(
        block
    )
    out = array("q", bytes(16 * n_pairs))
    offset = _HEADER.size
    n_deltas = n_pairs - 1
    for column, (width, first) in enumerate(
        ((width_s, first_s), (width_o, first_o))
    ):
        value = first
        out[column] = value
        if not width:
            for i in range(1, n_pairs):
                out[2 * i + column] = value
            continue
        deltas = array(_CODE_FOR_WIDTH[width])
        deltas.frombytes(bytes(block[offset: offset + width * n_deltas]))
        offset += width * n_deltas
        for i, z in enumerate(deltas, start=1):
            value += (z >> 1) ^ -(z & 1)
            out[2 * i + column] = value
    return out
