"""The package's records: validation, immutability and pickling.

Every immutable record is a ``typing.NamedTuple``; the ones that validate
do so in a subclass ``__new__``, which also runs when a record is
unpickled, as ``--jobs`` does with the run configuration it ships to each
worker.
"""

import pickle

import mpmath as mp
import pytest

from gue_gap_lab import DomainError, PrecisionPolicy, cli, iterate_r_orbit
from gue_gap_lab.probability import probability_record
from gue_gap_lab.report import make_check


@pytest.mark.parametrize("make, message", [
    (lambda: PrecisionPolicy(base_bits=16), "base_bits must be at least 64"),
    (lambda: PrecisionPolicy(base_bits=512, bits_per_n=-1), "bits_per_n must be nonnegative"),
    (lambda: PrecisionPolicy(bits_per_n=32), "bits_per_n needs base_bits"),
    (lambda: PrecisionPolicy(target_certified_digits=0), "target_certified_digits must be positive"),
    (lambda: PrecisionPolicy(max_bits=32),
     "max_bits must be at least base_bits + 64 (128 without base_bits)"),
])
def test_validating_records_raise_domain_error(make, message):
    with pytest.raises(DomainError) as exc:
        make()
    assert str(exc.value) == message


def _records(table_a1, states_a1):
    policy = PrecisionPolicy(max_bits=4096)
    return [
        policy,
        table_a1,
        states_a1[3],
        iterate_r_orbit("1", 3, 128),
        make_check("pair_sum", 2, [mp.mpf(1), -mp.mpf(1)], 1e-30, 64),
        probability_record(2, "1", policy, table=table_a1),
        cli.RunConfig(command="table", n_max=2, a_values=("1",), policy=policy,
                      digits=None, suite="all", jobs=2),
    ]


def test_records_reject_assignment(table_a1, states_a1):
    for record in _records(table_a1, states_a1):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_survive_a_pickle_round_trip(table_a1, states_a1):
    for record in _records(table_a1, states_a1):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record


def test_unpickling_runs_the_validation():
    # a pickle of a policy whose fields were changed past the constructor
    bad = pickle.dumps(PrecisionPolicy()._replace(max_bits=32))
    with pytest.raises(DomainError, match="max_bits"):
        pickle.loads(bad)
