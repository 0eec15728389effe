"""Edge-quantity ladder: seeds, sign structure, and the identity suite."""

import mpmath as mp
import pytest

from gue_gap_lab import (
    DomainError,
    build_recurrence_table,
    ladder_states,
    residual_identities,
    residual_supplementary,
    spectral_samples,
)
from gue_gap_lab.ladder import DEFAULT_Z_SAMPLES, edge_quantities
from gue_gap_lab.precision import as_mpf
from gue_gap_lab.weight import orbit_seed

# regression pins at a = 1, cross-checked against the difference-equation
# orbit and the determinant route before freezing
R_REFERENCE = {
    1: "2.63896751423",
    2: "-1.18857395952",
    3: "3.58932770752",
    4: "-1.96052869953",
    5: "4.27467765347",
}


def test_seed_rows(states_a1):
    bits = states_a1[0].bits
    a = as_mpf("1", bits)
    with mp.workprec(states_a1[0].bits):
        assert states_a1[0].r == 0
        assert states_a1[0].sigma == 0
        assert states_a1[0].p == 0
        r0 = orbit_seed(a, bits)[1]
        assert abs(states_a1[0].R - r0) / r0 < mp.mpf(10) ** -140
        r1 = a * r0  # r_1 = a R_0
        assert abs(states_a1[1].r - r1) / r1 < mp.mpf(10) ** -140


def test_r_sign_alternation_at_reference_cell(states_a1):
    # r_n alternates in sign with n at a = 1; never assume positivity
    with mp.workprec(64):
        for n, ref in R_REFERENCE.items():
            ref_v = mp.mpf(ref)
            got = states_a1[n].r
            assert mp.sign(got) == mp.sign(ref_v)
            assert abs(got - ref_v) / abs(ref_v) < 1e-9


def test_beta_positive_and_above_lower_bound(states_a1):
    # beta_n = (n + r_n)/2 > 0 even where r_n < 0, i.e. r_n > -n
    for n in range(1, len(states_a1)):
        s = states_a1[n]
        assert s.beta > 0
        assert s.r > -n


def test_R_positive_sigma_strictly_decreasing(states_a1):
    prev = None
    for n, s in enumerate(states_a1):
        assert s.R > 0
        if prev is not None:
            assert s.sigma < prev
        prev = s.sigma
    assert states_a1[1].sigma < 0


def test_identity_suite_all_pass(states_a1):
    reports = residual_identities(states_a1)
    assert all(rep.all_pass for rep in reports)
    worst = max(rep.worst for rep in reports)
    assert worst < 1e-30


def test_identity_suite_covers_seven_relations(states_a1):
    names = {c.name for rep in residual_identities(states_a1) for c in rep.checks}
    assert names == {
        "pair_sum", "beta_closed_form", "r_squared", "weighted_sum",
        "R_partial_sum", "subleading", "sigma_step",
    }


def test_supplementary_all_pass(states_a1):
    for n in range(0, len(states_a1) - 1):
        rep = residual_supplementary(states_a1, n)
        assert rep.all_pass
        assert rep.worst < 1e-30


def test_supplementary_covers_three_conditions(states_a1):
    names = {c.name.split("@")[0] for c in residual_supplementary(states_a1, 3).checks}
    assert names == {"s1", "s2", "s2sum"}


@pytest.mark.parametrize("a", ["0.37", "2.1", "5"])
def test_spectral_samples_keep_the_bits_of_the_mpf_expressions(a):
    # at 0.37 and 2.1 a default point sits on the pole and is nudged by 1.5
    states = ladder_states(build_recurrence_table(a, 6))
    bits = states[0].bits
    samples = spectral_samples(states)
    assert len(samples) == len(DEFAULT_Z_SAMPLES)
    with mp.workprec(bits):
        av = states[0].a
        for (names, z, neg_z, two_z, d, A, B), text in zip(samples, DEFAULT_Z_SAMPLES):
            zv = mp.make_mpf(z)
            nudged = zv != mp.mpf(text)
            assert nudged == (abs(mp.mpf(text) ** 2 - av * av) <= 1e-3)
            tag = mp.nstr(zv, 8)
            assert names == (f"s1@{tag}", f"s2@{tag}", f"s2sum@{tag}")
            assert (neg_z, two_z) == ((-zv)._mpf_, (2 * zv)._mpf_)
            assert d == (zv * zv - av * av)._mpf_
            assert A == [(2 + s.R * av / (zv * zv - av * av))._mpf_ for s in states]
            assert B == [(s.r * zv / (zv * zv - av * av))._mpf_ for s in states]


def test_supplementary_from_given_samples_equals_its_own(states_a1):
    samples = spectral_samples(states_a1)
    for n in range(len(states_a1) - 1):
        assert (residual_supplementary(states_a1, n, samples).checks
                == residual_supplementary(states_a1, n).checks)


def test_ladder_requires_positive_half_width():
    table = build_recurrence_table("0", 4)
    with pytest.raises(DomainError):
        ladder_states(table)


def test_partial_ladder_via_n_top(table_a1):
    part = ladder_states(table_a1, n_top=3)
    assert len(part) == 4
    full = ladder_states(table_a1)
    assert part[3].r == full[3].r


def test_states_consistent_across_half_widths():
    # sigma_n = -(R_0 + ... + R_{n-1}) re-assembled from scratch
    for a_text in ("0.25", "2"):
        table = build_recurrence_table(a_text, 6)
        states = ladder_states(table)
        with mp.workprec(table.working_bits):
            acc = mp.mpf(0)
            for n in range(len(states)):
                diff = abs(states[n].sigma - acc)
                assert diff <= mp.mpf(2) ** (10 - table.working_bits)
                acc -= states[n].R


@pytest.mark.parametrize("a_text", ["0.3", "1", "2.5"])
def test_edge_quantities_plain_and_jet_values_agree_bit_for_bit(a_text):
    table = build_recurrence_table(a_text, 12, jets=True)
    bits = table.working_bits
    a = table.a
    plain = edge_quantities(a, table.beta, table.h, bits)
    jets = edge_quantities(a, *table.jets, bits)
    for key in ("P", "R", "r", "sigma", "p"):
        assert len(plain[key]) == len(jets[key]) == 13
        assert [v._mpf_ for v in plain[key]] == [j.c[0]._mpf_ for j in jets[key]], key


@pytest.mark.parametrize("a_text", ["0.3", "1", "2.5"])
def test_ladder_states_round_as_the_textbook_formulas(a_text):
    # P_n(a) by the forward recurrence and R_n = 2 w0 P_n^2 / h_n written
    # out here; the states must equal them mpf for mpf
    table = build_recurrence_table(a_text, 30)
    states = ladder_states(table)
    with mp.workprec(table.working_bits):
        a = table.a
        two_w0 = 2 * mp.exp(-a * a)
        P = [mp.mpf(1), a]
        for j in range(1, 30):
            P.append(a * P[j] - table.beta[j] * P[j - 1])
        for n, s in enumerate(states):
            h = table.h[n]
            assert s.Pn_at_a._mpf_ == P[n]._mpf_
            assert s.R._mpf_ == (two_w0 * P[n] ** 2 / h)._mpf_, n
            if n:
                r = two_w0 * P[n] * P[n - 1] / table.h[n - 1]
                assert s.r._mpf_ == r._mpf_, n


def test_edge_quantities_at_zero_half_width():
    # the closed forms of the a = 0 rows: P_n(0) vanishes for odd n, so r
    # does too, and R_n = 2 P_n(0)^2 / h_n
    bits = 256
    with mp.workprec(bits):
        beta = [mp.mpf(j) / 2 for j in range(7)]
        h = [mp.factorial(j) / 2**j * mp.sqrt(mp.pi) for j in range(7)]
    edge = edge_quantities(mp.mpf(0), beta, h, bits)
    assert [v == 0 for v in edge["P"]] == [n % 2 == 1 for n in range(7)]
    assert all(v == 0 for v in edge["r"])
    with mp.workprec(bits):
        assert edge["R"][2] == 2 * (edge["P"][2] * edge["P"][2]) / h[2]
        assert edge["P"][4] == mp.mpf(3) / 4
        assert edge["p"][4] == -(beta[1] + beta[2] + beta[3])
        assert edge["sigma"][3] == -(edge["R"][0] + edge["R"][2])
