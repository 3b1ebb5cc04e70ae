import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlsched.config import EnvConfig
from rlsched.env import Job
from rlsched.errors import ConfigError, ParseError, SpecError, ValidationError
from rlsched.workload import (
    TraceMapping,
    WorkloadSpec,
    derived_seed,
    draw_sequences,
    generate,
    load_trace,
    save_trace,
    validate_spec,
)

CFG = EnvConfig()


def test_rate_zero_gives_empty_sequence():
    assert generate(WorkloadSpec(rate=0.0, length=100, seed=1), CFG) == []


def test_rate_one_gives_one_job_per_step():
    jobs = generate(WorkloadSpec(rate=1.0, length=10, seed=2), CFG)
    assert len(jobs) == 10
    assert [j.arrival for j in jobs] == list(range(10))


def test_job_count_binomial_concentration():
    # length 10000 at rate 0.7: 3 sigma = 3 * sqrt(10000 * 0.7 * 0.3) ~ 137.5
    jobs = generate(WorkloadSpec(rate=0.7, length=10_000, seed=5), CFG)
    assert abs(len(jobs) - 7000) <= 3 * math.sqrt(10_000 * 0.7 * 0.3)


def test_empirical_rate_converges():
    length = 100_000
    jobs = generate(WorkloadSpec(rate=0.7, length=length, seed=11), CFG)
    assert abs(len(jobs) / length - 0.7) <= 0.01


def test_generate_is_pure_in_spec():
    spec = WorkloadSpec(rate=0.5, length=200, seed=13)
    assert generate(spec, CFG) == generate(spec, CFG)


def test_generated_fields_respect_ranges():
    spec = WorkloadSpec(rate=0.9, length=500, seed=3)
    jobs = generate(spec, CFG)
    smalls = 0
    for j in jobs:
        assert 1 <= j.duration <= 15
        if j.duration <= 3:
            smalls += 1
        else:
            assert 10 <= j.duration
        assert max(j.demand) in range(3, 6)
        assert min(j.demand) in range(1, 3)
    assert smalls / len(jobs) == pytest.approx(0.8, abs=0.06)


def test_generate_draws_one_demand_per_config_resource():
    cfg = EnvConfig(capacities=(10, 10, 10))
    jobs = generate(WorkloadSpec(rate=1.0, length=50, seed=4), cfg)
    assert all(len(j.demand) == 3 for j in jobs)
    assert {j.demand.index(max(j.demand)) for j in jobs} == {0, 1, 2}


def test_generate_checks_spec_against_config():
    spec = WorkloadSpec(large_duration_range=(10, 25))
    with pytest.raises(SpecError):
        generate(spec, EnvConfig(horizon=20))


def test_draw_sequences_seeds_list_k_from_the_key_and_k():
    spec = WorkloadSpec(rate=0.6, length=30)
    drawn = draw_sequences(spec, CFG, 3, 4, 7919)
    assert drawn == [generate(replace(spec, seed=derived_seed(4, 7919, k)), CFG)
                     for k in range(3)]
    assert drawn[0] != drawn[1]


@pytest.mark.parametrize("count", [0, 2])
@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2.5,), (0, True), ("3", 0)])
def test_draw_sequences_rejects_a_negative_key(key, count):
    with pytest.raises(ConfigError, match="seed must be"):
        draw_sequences(WorkloadSpec(), CFG, count, *key)


def test_workload_spec_takes_a_numpy_integer_seed():
    spec = WorkloadSpec(rate=0.9, seed=np.uint64(17))
    assert generate(spec, CFG) == generate(replace(spec, seed=17), CFG)


def oracle_generate(spec, config):
    """`generate` written with numpy's `Generator` calls: the reference
    that the raw-stream decoder must match job for job."""
    rng = np.random.default_rng(spec.seed)
    jobs = []
    for t in range(spec.length):
        if rng.random() >= spec.rate:
            continue
        if rng.random() < spec.small_job_fraction:
            lo, hi = spec.small_duration_range
        else:
            lo, hi = spec.large_duration_range
        duration = int(rng.integers(lo, hi + 1))
        dominant = int(rng.integers(config.num_resources))
        demand = []
        for r in range(config.num_resources):
            lo, hi = (
                spec.dominant_demand_range
                if r == dominant
                else spec.other_demand_range
            )
            demand.append(int(rng.integers(lo, hi + 1)))
        jobs.append(
            Job(id=len(jobs), arrival=t, duration=duration, demand=tuple(demand))
        )
    return jobs


@st.composite
def spec_and_config(draw):
    """Rates and fractions with their ends, lengths long enough to refill
    the decoder's block of raw words, 1-4 resources, one-value ranges."""
    def unit():
        return draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))

    def span(low):
        lo = draw(st.integers(low, 6))
        return lo, lo + draw(st.sampled_from([0, 1, 2, 6]))

    spec = WorkloadSpec(
        rate=unit(), length=draw(st.integers(0, 400)),
        small_job_fraction=unit(), small_duration_range=span(1),
        large_duration_range=span(1), dominant_demand_range=span(1),
        other_demand_range=span(0), seed=draw(st.integers(0, 2**64)),
    )
    resources = draw(st.integers(1, 4))
    return spec, EnvConfig(horizon=12, capacities=(12,) * resources)


@settings(max_examples=150, deadline=None)
@given(spec_and_config())
def test_generate_matches_numpy_generator_oracle(case):
    spec, config = case
    assert generate(spec, config) == oracle_generate(spec, config)


@pytest.mark.parametrize("field, rng", [
    ("small_duration_range", (1, 2**31 + 1)),
    ("dominant_demand_range", (1, 2**32 - 1)),
    ("other_demand_range", (0, 2**32 - 1)),  # 2**32 values, the widest
], ids=["span-2**31+1", "span-2**32-1", "span-2**32"])
def test_generate_matches_numpy_generator_oracle_on_wide_ranges(field, rng):
    # 2**31 + 1 values reject about half the 32-bit words; 2**32 - 1 takes
    # the threshold branch on almost every word
    config = EnvConfig(horizon=2**32, capacities=(2**32,) * 3)
    for seed in range(4):
        spec = replace(WorkloadSpec(rate=0.9, length=200, seed=seed),
                       **{field: rng})
        assert generate(spec, config) == oracle_generate(spec, config)


# sha256 of the 160 job lists below, one repr line per list, as numpy's
# Generator drew them
RECORDED_PRESET_JOBS = (
    "0d39b3b751a363910399ecffcd68b7e9715a3977a2fd31da9e885ee1d7d35bf2")


def test_generate_keeps_the_recorded_sweep_preset_job_lists():
    """The job lists of the sweep preset's four rates and two seeds, 20 per
    cell, drawn through `draw_sequences` by the sweep's key rule."""
    digest = hashlib.sha256()
    for rate_index, rate in enumerate((0.6, 0.7, 0.8, 0.9)):
        for seed in (0, 1):
            for jobs in draw_sequences(replace(WorkloadSpec(), rate=rate), CFG,
                                       20, seed, rate_index):
                digest.update(repr([(j.id, j.arrival, j.duration, j.demand)
                                    for j in jobs]).encode() + b"\n")
    assert digest.hexdigest() == RECORDED_PRESET_JOBS


def test_invalid_specs_rejected():
    with pytest.raises(SpecError):
        generate(WorkloadSpec(rate=1.2), CFG)
    with pytest.raises(SpecError):
        generate(WorkloadSpec(small_duration_range=(3, 1)), CFG)
    with pytest.raises(SpecError):
        generate(WorkloadSpec(dominant_demand_range=(0, 2)), CFG)
    with pytest.raises(SpecError):
        generate(WorkloadSpec(small_duration_range=5), CFG)


@pytest.mark.parametrize("fields, config, fragment", [
    ({"length": -1}, CFG, "length must be >= 0, got -1"),
    ({"small_job_fraction": 1.5}, CFG,
     "small_job_fraction must be in [0, 1], got 1.5"),
    ({"small_job_fraction": -0.1}, CFG, "got -0.1"),
    ({"small_job_fraction": float("nan")}, CFG, "got nan"),
    ({"dominant_demand_range": (3, 6)}, EnvConfig(capacities=(10, 5)),
     "max demand 6 exceeds capacity 5"),
    ({"length": 60.0}, CFG, "length must be an int, got 60.0"),
    ({"length": True}, CFG, "length must be an int, got True"),
    ({"small_duration_range": (1.5, 3)}, CFG,
     "small_duration_range bounds must be ints, got (1.5, 3)"),
    ({"other_demand_range": (True, 2)}, CFG,
     "other_demand_range bounds must be ints, got (True, 2)"),
    ({"large_duration_range": (1, 2**32 + 1)},
     EnvConfig(horizon=2**33), "large_duration_range spans more than 2**32"),
], ids=["negative-length", "fraction-above-one", "negative-fraction",
        "nan-fraction", "demand-above-smallest-capacity", "float-length",
        "bool-length", "float-bound", "bool-bound", "span-above-2**32"])
def test_validate_spec_names_the_bad_value(fields, config, fragment):
    with pytest.raises(SpecError) as err:
        validate_spec(WorkloadSpec(**fields), config)
    assert fragment in str(err.value)


# -- traces ------------------------------------------------------------------------


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_empty_trace_with_header(tmp_path):
    path = write(tmp_path, "job_id,arrival_time,duration,cpu_req,mem_req\n")
    assert load_trace(path, EnvConfig()) == []


def test_trace_rebase_and_sort(tmp_path):
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n"
        "1,100,2,3,1\n"
        "2,105,2,3,1\n"
        "3,103,2,3,1\n",
    )
    jobs = load_trace(path, EnvConfig())
    assert [j.arrival for j in jobs] == [0, 3, 5]
    assert [j.id for j in jobs] == [1, 3, 2]


def test_trace_demand_over_capacity(tmp_path):
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n9,0,1,999,1\n",
    )
    with pytest.raises(ValidationError) as err:
        load_trace(path, EnvConfig(capacities=(10, 10)))
    assert err.value.job_id == 9


def test_trace_negative_id_rejected_with_its_id(tmp_path):
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n0,0,1,2,1\n-1,0,1,2,1\n",
    )
    with pytest.raises(ValidationError) as err:
        load_trace(path, EnvConfig())
    assert err.value.job_id == -1


def test_trace_parse_error_carries_line(tmp_path):
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n"
        "1,0,1,2,1\n"
        "2,zero,1,2,1\n",
    )
    with pytest.raises(ParseError) as err:
        load_trace(path, EnvConfig())
    assert err.value.line == 3


@pytest.mark.parametrize("where, line", [("header", 1), ("row", 3)])
def test_trace_undecodable_byte_is_a_parse_error_at_its_line(tmp_path, where, line):
    """The text layer decodes the file ahead of the reader, so the line
    is the one that holds the byte, not the one the reader reached."""
    header = b"job_id,arrival_time,duration,cpu_req,mem_req"
    rows = [header, b"1,0,1,2,1", b"2,0,1,2,1", b"3,0,1,2,1"]
    rows[line - 1] += b"\xff"
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    with pytest.raises(ParseError) as err:
        load_trace(path, EnvConfig())
    assert err.value.line == line
    assert "invalid start byte" in str(err.value)


def test_numpy_bounds_are_stored_as_plain_ints():
    spec = WorkloadSpec(small_duration_range=(np.int64(1), np.uint8(3)),
                        large_duration_range=(10, np.int32(15)))
    assert spec.small_duration_range == (1, 3)
    assert spec.large_duration_range == (10, 15)
    assert {type(b) for r in (spec.small_duration_range, spec.large_duration_range)
            for b in r} == {int}
    assert generate(spec, CFG) == generate(WorkloadSpec(), CFG)


def test_trace_missing_column(tmp_path):
    path = write(tmp_path, "job_id,arrival_time,duration,cpu_req\n1,0,1,2\n")
    with pytest.raises(ParseError):
        load_trace(path, EnvConfig())


def test_trace_duration_ceiling_never_floor(tmp_path):
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n"
        "1,0,30,2,1\n"
        "2,125,1,2,1\n",
    )
    jobs = load_trace(path, EnvConfig(), time_scale=60.0)
    by_id = {j.id: j for j in jobs}
    assert by_id[1].duration == 1  # ceil(0.5)
    assert by_id[2].duration == 1  # ceil of a tiny positive stays 1
    assert by_id[2].arrival == 2  # floor(125 / 60)


def test_trace_zero_duration_rejected(tmp_path):
    path = write(
        tmp_path, "job_id,arrival_time,duration,cpu_req,mem_req\n1,0,0,2,1\n"
    )
    with pytest.raises(ValidationError):
        load_trace(path, EnvConfig())


def test_trace_duration_beyond_horizon_rejected_at_load(tmp_path):
    # 61 s at 10 s per step quantizes to 7 steps, one more than the horizon
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n1,0,60,2,1\n5,0,61,2,1\n",
    )
    with pytest.raises(ValidationError) as err:
        load_trace(path, EnvConfig(horizon=6), time_scale=10.0)
    assert err.value.job_id == 5
    assert "horizon" in str(err.value)


def test_trace_nonpositive_time_scale_rejected(tmp_path):
    path = write(tmp_path, "job_id,arrival_time,duration,cpu_req,mem_req\n")
    with pytest.raises(ConfigError):
        load_trace(path, EnvConfig(), time_scale=0)


@pytest.mark.parametrize(
    "row, time_scale, error",
    [
        ("1,nan,1,2,1", 1.0, ParseError),
        ("1,inf,1,2,1", 1.0, ParseError),
        ("1,0,nan,2,1", 1.0, ParseError),
        ("1,0,-inf,2,1", 1.0, ParseError),
        ("1,1e308,1,2,1", 0.1, ParseError),  # finite, but not once in steps
        ("1,0,1,2,1", math.nan, ConfigError),
        ("1,0,1,2,1", math.inf, ConfigError),
    ],
    ids=["nan-arrival", "inf-arrival", "nan-duration", "minus-inf-duration",
         "arrival-overflows-in-steps", "nan-time-scale", "inf-time-scale"],
)
def test_trace_non_finite_times_rejected(tmp_path, row, time_scale, error):
    path = write(
        tmp_path,
        f"job_id,arrival_time,duration,cpu_req,mem_req\n2,0,1,2,1\n{row}\n",
    )
    with pytest.raises(error) as err:
        load_trace(path, EnvConfig(), time_scale=time_scale)
    if error is ParseError:
        assert err.value.line == 3


def test_trace_duplicate_ids_rejected(tmp_path):
    path = write(
        tmp_path,
        "job_id,arrival_time,duration,cpu_req,mem_req\n1,0,1,2,1\n1,3,1,2,1\n",
    )
    with pytest.raises(ValidationError):
        load_trace(path, EnvConfig())


def test_trace_column_mapping(tmp_path):
    path = write(
        tmp_path,
        "jid,submit,runtime,procs,mem\n4,10,3,2,1\n",
    )
    mapping = TraceMapping(
        job_id="jid", arrival="submit", duration="runtime",
        demand_columns=("procs", "mem"),
    )
    jobs = load_trace(path, EnvConfig(), mapping=mapping)
    assert jobs == [Job(id=4, arrival=0, duration=3, demand=(2, 1))]


def test_trace_mapping_needs_one_demand_column_per_resource(tmp_path):
    path = write(tmp_path, "job_id,arrival_time,duration,cpu_req,mem_req\n")
    with pytest.raises(ConfigError) as err:
        load_trace(path, EnvConfig(capacities=(10, 10, 10)))
    assert str(err.value) == ("mapping names 2 demand columns, "
                              "config has 3 resources")


def test_save_then_load_round_trip(tmp_path):
    jobs = generate(WorkloadSpec(rate=0.8, length=40, seed=21), CFG)
    jobs[0].arrival = 0  # canonical form: rebased arrivals survive reload
    path = tmp_path / "out.csv"
    save_trace(jobs, path)
    loaded = load_trace(path, EnvConfig())
    assert loaded == sorted(jobs, key=lambda j: j.arrival)


def test_save_trace_rejects_non_canonical_demand(tmp_path):
    path = tmp_path / "out.csv"
    jobs = [Job(0, 0, 1, (1, 1)), Job(7, 1, 1, (1, 1, 1))]
    with pytest.raises(ValidationError) as err:
        save_trace(jobs, path)
    assert err.value.job_id == 7
    assert not path.exists()
