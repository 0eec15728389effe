"""Arbitrary-precision scaffolding: Real, policy, parsing."""

import mpmath as mp
import pytest

from gue_gap_lab import (
    DomainError,
    PrecisionPolicy,
    Real,
)
from gue_gap_lab.precision import as_mpf


class TestReal:
    def test_string_parse_is_exact_at_bits(self):
        r = Real.from_str("0.1", 256)
        with mp.workprec(256):
            assert r.value == mp.mpf("0.1")
        assert r.precision_bits == 256


class TestPolicy:
    def test_working_bits_is_affine_in_n(self):
        p = PrecisionPolicy(base_bits=512, bits_per_n=32)
        assert p.working_bits(0) == 512
        assert p.working_bits(25) == 512 + 32 * 25

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
            PrecisionPolicy(max_bits=256)


def test_as_mpf_rejects_garbage():
    with pytest.raises(ValueError):
        as_mpf("not a number", 128)
