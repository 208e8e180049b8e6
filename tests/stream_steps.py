"""PCG64 words and doubles one step at a time, as numpy's `random_raw` and
`random` give them, from a `qclone.sampler.PCG64` stream, which they
advance.  `sampler.draw` steps the stream inline; these steps let the tests
read the stream word by word.  Standard library only: the sampler's
known-answer vectors run with numpy blocked."""

from qclone.sampler import _DOUBLE_UNIT, _MASK64, _MASK128, _PCG_MULT


def next_uint64(stream) -> int:
    """One 128-bit LCG step, then the XSL-RR output word."""
    stream.state = state = (stream.state * _PCG_MULT + stream.inc) & _MASK128
    value = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    return (value >> rot | value << (64 - rot)) & _MASK64


def next_double(stream) -> float:
    """The top 53 bits of the next word, scaled into [0, 1)."""
    return (next_uint64(stream) >> 11) * _DOUBLE_UNIT
