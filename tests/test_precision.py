"""Arbitrary-precision scaffolding: policy, parsing."""

import mpmath as mp
import pytest

from gue_gap_lab import DomainError, PrecisionPolicy
from gue_gap_lab.precision import CHECK_BITS, as_mpf


def test_as_mpf_string_parse_is_exact_at_bits():
    x = as_mpf("0.1", 256)
    with mp.workprec(256):
        assert x == mp.mpf("0.1")
    assert x != as_mpf("0.1", 512)


class TestPolicy:
    def test_working_bits_is_affine_in_n(self):
        # an explicit start is exact: affine in n on the Chebyshev route,
        # base_bits alone on the orbit
        p = PrecisionPolicy(base_bits=512, bits_per_n=32)
        assert p.start_bits("chebyshev", 1, 0) == 512
        assert p.start_bits("chebyshev", 1, 25) == 512 + 32 * 25
        assert p.start_bits("orbit", 1, 25) == 512

    def test_escalate_grows_strictly(self):
        p = PrecisionPolicy()
        b = 512
        for _ in range(4):
            nxt = p.escalate(b)
            assert nxt > b
            b = nxt

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            PrecisionPolicy(base_bits=16)
        with pytest.raises(DomainError):
            PrecisionPolicy(base_bits=512, max_bits=256)
        with pytest.raises(DomainError):
            PrecisionPolicy(max_bits=32)
        with pytest.raises(DomainError):
            PrecisionPolicy(bits_per_n=32)
        assert PrecisionPolicy(max_bits=256).base_bits is None
        # every level's lower pass is capped at max_bits - CHECK_BITS, so the
        # ceiling must reach base_bits + CHECK_BITS (64 + CHECK_BITS without)
        for fields in ({"base_bits": 1000, "max_bits": 1030}, {"max_bits": 127}):
            with pytest.raises(DomainError, match="max_bits must be at least base_bits"):
                PrecisionPolicy(**fields)
        assert PrecisionPolicy(base_bits=1000, max_bits=1000 + CHECK_BITS).max_bits == 1064
        assert PrecisionPolicy(max_bits=64 + CHECK_BITS).base_bits is None


def test_as_mpf_rejects_garbage():
    with pytest.raises(ValueError):
        as_mpf("not a number", 128)
