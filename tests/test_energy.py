"""Energy, bandwidth and size-reduction accounting."""

import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convwatt import energy
from convwatt.cluster import indexes_per_word
from convwatt.energy import (
    BASE_FP32_ADD_PJ,
    BASE_FP32_MUL_PJ,
    ClusteringChoice,
    EnergyConfig,
    EnergyConfigError,
    avg_dram_energy,
    clustered_size_bits,
    dram_accesses,
    fp_energy_mj,
    frame_energy,
    load_energy_config,
    parse_energy_config,
    size_reduction_factor,
    sram_energy_mj,
    sram_table_bytes,
)
from convwatt.traffic import AccessProfile, OpProfile, aggregate, op_profile

from test_traffic import FIXTURE_TOTAL, FIXTURE_WEIGHT_READS

# 64-bit access counts and energies implied by the fixture's element counts
# under the shipped DRAM constants; validated against the published
# measurements (200 GB/s demand, 84.4% DRAM share, 2086 mJ per frame).
BASELINE_READS = 937_412_050
BASELINE_WRITES = 60_848_355
BASELINE_BYTES = 7_986_083_240
BASELINE_DRAM_MJ = 1758.172895327344
CALIBRATED_ADD_PJ = 0.9020256943361774
CALIBRATED_MUL_PJ = 3.708327854493174
CALIBRATION_SCALE = 1.0022507714846416
CALIBRATED_FP_MJ = 324.9703455818315


# The packaged configuration file, which the config-file tests edit.
DEFAULT_TEXT = resources.files("convwatt").joinpath("data/default-energy.cfg").read_text()


@pytest.fixture(scope="module")
def config():
    return load_energy_config()


@pytest.fixture(scope="module")
def fixture_profile(yolov3_net):
    return aggregate(yolov3_net)[1]


@pytest.fixture(scope="module")
def fixture_ops(yolov3_net):
    return op_profile(yolov3_net)


@pytest.fixture(scope="module")
def baseline(fixture_profile, fixture_ops, config):
    return frame_energy(fixture_profile, fixture_ops, config)


def clustered(profile, ops, config, base, bits, n_tables=1):
    return frame_energy(
        profile, ops, config, clustering=ClusteringChoice(bits, n_tables), baseline=base
    )


class TestAverages:
    def test_read_average_at_1_of_64(self):
        assert avg_dram_energy(2937, 1735, 1 / 64) == 1753.78125

    def test_write_average_at_1_of_64(self):
        assert avg_dram_energy(2953, 1859, 1 / 64) == 1876.09375

    def test_averages_at_1_of_128(self):
        assert avg_dram_energy(2937, 1735, 1 / 128) == 1744.390625
        assert avg_dram_energy(2953, 1859, 1 / 128) == 1867.546875

    def test_hit_equals_miss_collapses(self):
        for fraction in (1 / 64, 0.5, 1.0):
            assert avg_dram_energy(42.0, 42.0, fraction) == 42.0

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_config_rejects_fraction_outside_domain(self, fraction):
        # EnergyConfig checks the fraction once; avg_dram_energy trusts it
        with pytest.raises(EnergyConfigError, match="row_miss_fraction"):
            EnergyConfig(2937, 1735, 2953, 1859, row_miss_fraction=fraction)

    def test_config_exposes_averages(self, config):
        assert config.avg_read_pj == 1753.78125
        assert config.avg_write_pj == 1876.09375


class TestBusPacking:
    def test_fp32_weights_two_per_access(self):
        reads, writes = dram_accesses(AccessProfile(weight_reads=1000))
        assert (reads, writes) == (500, 0)

    def test_8bit_indexes_eight_per_access(self):
        reads, _ = dram_accesses(AccessProfile(weight_reads=1000), bits=8)
        assert reads == 125

    def test_6bit_indexes_ten_per_access(self):
        reads, _ = dram_accesses(AccessProfile(weight_reads=1000), bits=6)
        assert reads == 100

    def test_each_category_rounds_up_alone(self):
        profile = AccessProfile(
            weight_reads=1, input_reads=1, output_reads=1, output_writes=1
        )
        reads, writes = dram_accesses(profile, bits=8, table_elements=1)
        assert reads == 4
        assert writes == 1

    def test_odd_counts_round_up(self):
        reads, writes = dram_accesses(
            AccessProfile(weight_reads=1001, input_reads=3, output_writes=7), bits=8
        )
        assert reads == 126 + 2
        assert writes == 4

    def test_wider_bus_packs_more(self):
        profile = AccessProfile(weight_reads=1000, input_reads=1000, output_writes=1000)
        reads64, writes64 = dram_accesses(profile, bits=8, bus_bits=64)
        reads128, writes128 = dram_accesses(profile, bits=8, bus_bits=128)
        assert reads128 == math.ceil(reads64 / 2)
        assert writes128 == math.ceil(writes64 / 2)

    def test_indexes_per_word(self):
        assert [indexes_per_word(b) for b in (8, 7, 6, 5)] == [4, 4, 5, 6]
        with pytest.raises(ValueError):
            indexes_per_word(0)
        with pytest.raises(ValueError):
            indexes_per_word(33)

    @given(
        weight_reads=st.integers(min_value=0, max_value=10**7),
        bits=st.sampled_from([5, 6, 7, 8]),
    )
    def test_packed_never_exceeds_fp32_accesses(self, weight_reads, bits):
        profile = AccessProfile(weight_reads=weight_reads)
        packed, _ = dram_accesses(profile, bits=bits)
        plain, _ = dram_accesses(profile)
        assert packed <= plain


class TestTables:
    def test_table_bytes(self):
        assert [sram_table_bytes(b) for b in (8, 7, 6, 5)] == [1024, 512, 256, 128]

    @pytest.mark.parametrize("bits", [4, 9, 0])
    def test_table_bytes_range(self, bits):
        with pytest.raises(EnergyConfigError):
            sram_table_bytes(bits)

    def test_sram_energy(self, config):
        assert sram_energy_mj(10**9, 8, config) == pytest.approx(0.85, rel=1e-12)

    def test_sram_energy_requires_configured_width(self, config):
        bare = dataclasses.replace(config, sram_read_pj={8: 0.85})
        with pytest.raises(EnergyConfigError, match="no SRAM read energy"):
            sram_energy_mj(1, 5, bare)

    def test_clustering_choice(self):
        assert ClusteringChoice(8, 75).table_entries == 75 * 256
        assert ClusteringChoice(5).table_entries == 32
        with pytest.raises(ValueError):
            ClusteringChoice(0)
        with pytest.raises(ValueError):
            ClusteringChoice(9)
        with pytest.raises(ValueError):
            ClusteringChoice(8, 0)
        assert ClusteringChoice(np.int64(5), np.int64(2)).table_entries == 64

    @pytest.mark.parametrize("field", ["bits", "n_tables"])
    @pytest.mark.parametrize("value", [5.5, 5.0, "5", None])
    def test_clustering_choice_rejects_non_integers(self, field, value):
        # a float would pass the range checks and fail in table_entries
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            ClusteringChoice(**{"bits": 5, field: value})


class TestSizeReduction:
    def test_without_tables_is_32_over_bits(self):
        # word-aligned packing, indexes_per_word(bits), can only fall short
        factors = [size_reduction_factor(7, b, 0) for b in (8, 7, 6, 5)]
        assert factors == [4.0, 32 / 7, 32 / 6, 6.4]
        assert all(f >= indexes_per_word(b) for f, b in zip(factors, (8, 7, 6, 5)))

    def test_tight_fig4_example(self):
        assert clustered_size_bits(1000, 2, 4) == 2128
        factor = size_reduction_factor(1000, 2, table_entries=4)
        assert factor == pytest.approx(32000 / 2128)
        assert factor >= 15.0

    def test_needs_weights(self):
        with pytest.raises(ValueError):
            size_reduction_factor(0, 8, 256)

    @given(
        n=st.integers(min_value=1, max_value=10**6),
        bits=st.integers(min_value=1, max_value=8),
        entries=st.integers(min_value=1, max_value=4096),
    )
    def test_tight_beats_word_aligned_only_via_tables(self, n, bits, entries):
        tight = size_reduction_factor(n, bits, table_entries=entries)
        assert tight <= 32 / bits
        assert tight > 0


class TestCalibration:
    def test_fixture_constants(self, config, fixture_ops):
        # the shipped [fp] prices are the 45 nm base scaled by one factor,
        # which sets DRAM to 84.4 % of the baseline frame energy
        assert config.fp_pj["add"] == pytest.approx(
            BASE_FP32_ADD_PJ * CALIBRATION_SCALE, rel=1e-12
        )
        for op in ("sub", "mul", "div", "exp", "sqrt"):
            assert config.fp_pj[op] == pytest.approx(
                BASE_FP32_MUL_PJ * CALIBRATION_SCALE, rel=1e-12
            )
        fp_mj = fp_energy_mj(fixture_ops, config.fp_pj)
        assert fp_mj == pytest.approx(CALIBRATED_FP_MJ, rel=1e-12)
        assert BASELINE_DRAM_MJ / (BASELINE_DRAM_MJ + fp_mj) == pytest.approx(
            0.844, rel=1e-12
        )

    def test_mac_priced_as_add_plus_mul(self):
        prices = {"add": 1.0, "sub": 2.0, "mul": 3.0, "div": 4.0, "exp": 5.0, "sqrt": 6.0}
        ops = OpProfile(macs=10, fp_add=1, fp_sub=1, fp_mul=1, fp_div=1, fp_exp=1, fp_sqrt=1)
        expected = (10 * (1 + 3) + 1 + 2 + 3 + 4 + 5 + 6) * 1e-9
        assert fp_energy_mj(ops, prices) == pytest.approx(expected, rel=1e-12)

    def test_sum_order_is_mac_add_sub_mul_div_exp_sqrt(self, fixture_ops, config):
        price = config.fp_pj
        pj = fixture_ops.macs * (price["add"] + price["mul"])
        pj += fixture_ops.fp_add * price["add"]
        pj += fixture_ops.fp_sub * price["sub"]
        pj += fixture_ops.fp_mul * price["mul"]
        pj += fixture_ops.fp_div * price["div"]
        pj += fixture_ops.fp_exp * price["exp"]
        pj += fixture_ops.fp_sqrt * price["sqrt"]
        assert fp_energy_mj(fixture_ops, price) == pj * 1e-9

    def test_missing_ops_priced_as_mul(self):
        ops = OpProfile(fp_exp=100)
        assert fp_energy_mj(ops, {"add": 1.0, "mul": 2.0}) == pytest.approx(200e-9)


class TestConfigFile:
    def test_default_constants(self, config):
        assert config.dram_read_miss_pj == 2937.0
        assert config.dram_read_hit_pj == 1735.0
        assert config.dram_write_miss_pj == 2953.0
        assert config.dram_write_hit_pj == 1859.0
        assert config.row_miss_fraction == 1 / 64
        assert config.bus_bits == 64
        assert config.dram_peak_gbps == 204.8
        assert config.target_fps == 25.0
        assert config.sram_read_pj == {5: 0.36, 6: 0.40, 7: 0.52, 8: 0.85}
        assert config.fp_pj["add"] == CALIBRATED_ADD_PJ
        assert config.fp_pj["mul"] == CALIBRATED_MUL_PJ

    def test_explicit_path_is_read(self, config, tmp_path):
        path = tmp_path / "alt.cfg"
        path.write_text(DEFAULT_TEXT.replace("target_fps = 25.0", "target_fps = 30.0"))
        want = dataclasses.replace(config, target_fps=30.0)
        assert load_energy_config(str(path)) == want

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.replace("read_row_miss_pj", "read_miss_pj"), "unknown"),
            (lambda t: t + "\n[cache]\nsize = 1\n", "unknown config sections"),
            (lambda t: t.replace("[dram]", "[dram]\nvoltage = 1.1"), "unknown"),
            (lambda t: t.replace("table_read_8bit_pj", "table_write_8bit_pj"), "sram"),
            (lambda t: t.replace("add_pj", "fma_pj"), "fp"),
            (lambda t: t.replace("target_fps", "fps"), "system"),
        ],
    )
    def test_strict_keys(self, mutate, fragment):
        with pytest.raises(EnergyConfigError, match=fragment):
            parse_energy_config(mutate(DEFAULT_TEXT))

    def test_missing_dram_settings(self):
        with pytest.raises(EnergyConfigError) as caught:
            parse_energy_config("[dram]\nread_row_miss_pj = 2937\nbus_bits = 64\n")
        assert str(caught.value) == (
            "missing [dram] settings: ['dram_read_hit_pj', 'dram_write_hit_pj', "
            "'dram_write_miss_pj', 'row_miss_fraction']"
        )

    @pytest.mark.parametrize("key", ["bus_bits", "peak_bandwidth_gbps"])
    def test_dram_settings_with_defaults_may_be_left_out(self, config, key):
        lines = [line for line in DEFAULT_TEXT.splitlines() if not line.startswith(key)]
        assert len(lines) < len(DEFAULT_TEXT.splitlines())
        assert parse_energy_config("\n".join(lines)) == config

    def test_fraction_syntax(self):
        text = (
            "[dram]\nread_row_miss_pj = 2937\nread_row_hit_pj = 1735\n"
            "write_row_miss_pj = 2953\nwrite_row_hit_pj = 1859\n"
            "row_miss_fraction = 1/64\n"
        )
        assert parse_energy_config(text).row_miss_fraction == 0.015625

    @pytest.mark.parametrize("fraction", ["1/0", "0/0", "1/0.0"])
    def test_zero_denominator_rejected(self, fraction):
        text = DEFAULT_TEXT.replace(
            "row_miss_fraction = 0.015625", f"row_miss_fraction = {fraction}"
        )
        with pytest.raises(EnergyConfigError, match="zero denominator"):
            parse_energy_config(text)

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("bus_bits = 64", "bus_bits = 64.5", "[dram] bus_bits = '64.5'"),
            ("read_row_hit_pj = 1735", "read_row_hit_pj = x", "[dram] read_row_hit_pj = 'x'"),
            (
                "row_miss_fraction = 0.015625",
                "row_miss_fraction = 1/x",
                "[dram] row_miss_fraction = '1/x'",
            ),
            (
                "table_read_5bit_pj = 0.36",
                "table_read_5bit_pj = 0..36",
                "[sram] table_read_5bit_pj = '0..36'",
            ),
            (
                "table_read_5bit_pj = 0.36",
                "table_read_fivebit_pj = 0.36",
                "[sram] table_read_fivebit_pj = 'five'",
            ),
            ("sub_pj = 3.708327854493174", "sub_pj = 3,7", "[fp] sub_pj = '3,7'"),
            ("target_fps = 25.0", "target_fps = fast", "[system] target_fps = 'fast'"),
        ],
    )
    def test_non_numeric_value_names_section_and_key(self, old, new, where):
        assert old in DEFAULT_TEXT
        with pytest.raises(EnergyConfigError) as caught:
            parse_energy_config(DEFAULT_TEXT.replace(old, new))
        assert str(caught.value).startswith(where + ": ")

    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_values_raise_only_typed_errors(self, data):
        # each value keeps its key, so mutants reach the number parsing and
        # the range checks rather than the section grammar
        lines = DEFAULT_TEXT.splitlines()
        keyed = [i for i, line in enumerate(lines) if " = " in line]
        at = data.draw(st.sampled_from(keyed), label="at")
        number = st.one_of(
            st.integers(-2, 200).map(str),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["", "x", "0", "-0", "1/", "/2", "1/2/3", "nan", "inf"]),
        )
        value = data.draw(
            st.one_of(number, st.tuples(number, number).map("/".join)), label="value"
        )
        lines[at] = lines[at].partition(" = ")[0] + " = " + value
        try:
            parse_energy_config("\n".join(lines))
        except EnergyConfigError:
            pass

    def test_bad_bus_width(self, config):
        with pytest.raises(EnergyConfigError, match="bus_bits"):
            dataclasses.replace(config, bus_bits=48)


class TestFrameEnergy:
    def test_baseline_access_counts(self, baseline):
        assert baseline.dram_read_accesses == BASELINE_READS
        assert baseline.dram_write_accesses == BASELINE_WRITES
        assert baseline.dram_bytes == BASELINE_BYTES

    def test_baseline_energy(self, baseline):
        assert baseline.dram_energy_mj == pytest.approx(BASELINE_DRAM_MJ, rel=1e-12)
        assert baseline.sram_energy_mj == 0.0
        assert baseline.fp_energy_mj == pytest.approx(CALIBRATED_FP_MJ, rel=1e-12)
        assert baseline.total_energy_mj == pytest.approx(
            BASELINE_DRAM_MJ + CALIBRATED_FP_MJ, rel=1e-12
        )

    def test_dram_share_calibrated(self, baseline):
        assert baseline.dram_energy_mj / baseline.total_energy_mj == pytest.approx(
            0.844, rel=1e-12
        )

    def test_baseline_bandwidth_and_fps(self, baseline):
        assert baseline.bandwidth_gbps == pytest.approx(199.652081, abs=1e-6)
        assert baseline.max_fps == 25.0
        # the 204.8 GB/s part can sustain the baseline at slightly above target
        assert baseline.max_fps_peak == pytest.approx(204.8e9 / BASELINE_BYTES, rel=1e-12)
        assert 25.0 < baseline.max_fps_peak < 26.0

    def test_relative_pcts_of_baseline_are_100(self, baseline):
        assert baseline.relative_memory_energy_pct == 100.0
        assert baseline.relative_overall_energy_pct == 100.0

    def test_8bit_clustered_row(self, fixture_profile, fixture_ops, config, baseline):
        report = clustered(fixture_profile, fixture_ops, config, baseline, bits=8)
        reads = (
            math.ceil(FIXTURE_WEIGHT_READS / 8)
            + math.ceil(256 / 2)
            + math.ceil(239_391_331 / 2)
        )
        writes = math.ceil(121_696_710 / 2)
        assert report.dram_read_accesses == reads
        assert report.dram_write_accesses == writes
        assert report.dram_bytes == (reads + writes) * 8
        assert report.bandwidth_gbps == pytest.approx(76.9946, abs=5e-4)
        assert report.max_fps == pytest.approx(64.83, abs=5e-3)
        assert report.relative_memory_energy_pct == pytest.approx(38.90, abs=5e-3)
        assert report.relative_overall_energy_pct == pytest.approx(48.43, abs=5e-3)
        assert report.sram_energy_mj == pytest.approx(1.3901, abs=1e-4)

    def test_6bit_and_5bit_rows(self, fixture_profile, fixture_ops, config, baseline):
        six = clustered(fixture_profile, fixture_ops, config, baseline, bits=6)
        five = clustered(fixture_profile, fixture_ops, config, baseline, bits=5)
        assert six.bandwidth_gbps == pytest.approx(68.82, abs=5e-3)
        assert six.max_fps == pytest.approx(72.53, abs=5e-3)
        assert six.relative_memory_energy_pct == pytest.approx(34.78, abs=5e-3)
        assert six.relative_overall_energy_pct == pytest.approx(44.96, abs=5e-3)
        assert five.bandwidth_gbps == pytest.approx(63.37, abs=5e-3)
        assert five.max_fps == pytest.approx(78.77, abs=5e-3)
        assert five.relative_memory_energy_pct == pytest.approx(32.06, abs=5e-3)
        assert five.relative_overall_energy_pct == pytest.approx(42.66, abs=5e-3)

    def test_7bit_matches_8bit_dram(self, fixture_profile, fixture_ops, config, baseline):
        seven = clustered(fixture_profile, fixture_ops, config, baseline, bits=7)
        eight = clustered(fixture_profile, fixture_ops, config, baseline, bits=8)
        # both widths pack four indexes per word, so the weight stream is
        # identical; total reads differ only by the halved codebook fetch
        assert eight.dram_read_accesses - seven.dram_read_accesses == (256 - 128) // 2
        assert seven.dram_write_accesses == eight.dram_write_accesses
        assert eight.dram_energy_mj - seven.dram_energy_mj < 1e-3
        assert round(seven.bandwidth_gbps, 2) == round(eight.bandwidth_gbps, 2)
        # table lookups are cheaper at 7 bits, but the gap is invisible at
        # the reported precision
        assert seven.sram_energy_mj < eight.sram_energy_mj
        assert round(seven.relative_memory_energy_pct, 1) == round(
            eight.relative_memory_energy_pct, 1
        ) == 38.9

    def test_sram_share_negligible(self, fixture_profile, fixture_ops, config, baseline):
        for bits in (5, 6, 7, 8):
            report = clustered(fixture_profile, fixture_ops, config, baseline, bits=bits)
            assert report.sram_energy_mj / baseline.total_energy_mj < 0.001
        # against its own total the 8-bit share is 0.138%, which is why the
        # negligibility claim is measured against the uncompressed baseline
        eight = clustered(fixture_profile, fixture_ops, config, baseline, bits=8)
        assert eight.sram_energy_mj / eight.total_energy_mj > 0.001

    def test_per_layer_tables_within_tenth_percent(
        self, fixture_profile, fixture_ops, config, baseline
    ):
        for bits in (5, 6, 7, 8):
            one = clustered(fixture_profile, fixture_ops, config, baseline, bits, 1)
            per = clustered(fixture_profile, fixture_ops, config, baseline, bits, 75)
            assert per.total_energy_mj > one.total_energy_mj
            assert (per.total_energy_mj - one.total_energy_mj) < 0.001 * one.total_energy_mj

    def test_memory_ratio_tracks_traffic_with_equal_energies(
        self, fixture_profile, fixture_ops, config
    ):
        flat = dataclasses.replace(
            config,
            dram_read_miss_pj=2000.0,
            dram_read_hit_pj=2000.0,
            dram_write_miss_pj=2000.0,
            dram_write_hit_pj=2000.0,
            sram_read_pj={5: 0.0, 6: 0.0, 7: 0.0, 8: 0.0},
        )
        base = frame_energy(fixture_profile, fixture_ops, flat)
        report = clustered(fixture_profile, fixture_ops, flat, base, bits=8)
        traffic_pct = 100.0 * report.dram_bytes / base.dram_bytes
        assert report.relative_memory_energy_pct == pytest.approx(traffic_pct, rel=1e-6)

    def test_memory_ratio_near_traffic_with_real_energies(
        self, fixture_profile, fixture_ops, config, baseline
    ):
        report = clustered(fixture_profile, fixture_ops, config, baseline, bits=8)
        traffic_pct = 100.0 * report.dram_bytes / baseline.dram_bytes
        assert abs(report.relative_memory_energy_pct - traffic_pct) < 0.5

    def test_report_dict_shape(self, baseline):
        data = baseline.to_dict()
        assert data["label"] == "baseline"
        assert data["weight_bits"] is None
        assert data["elements"]["weight_reads"] == FIXTURE_WEIGHT_READS
        assert data["dram"]["bytes_per_frame"] == BASELINE_BYTES
        assert data["energy_mj"]["total"] == pytest.approx(
            baseline.total_energy_mj, rel=1e-12
        )
        split = data["access_split_pct"]
        assert sum(split.values()) == pytest.approx(100.0, abs=1e-9)

    def test_report_carries_the_profile_it_priced(self, baseline, fixture_profile):
        assert baseline.profile == fixture_profile
        assert baseline.to_dict()["elements"] == {
            "weight_reads": fixture_profile.weight_reads,
            "input_reads": fixture_profile.input_reads,
            "output_reads": fixture_profile.output_reads,
            "output_writes": fixture_profile.output_writes,
            "table_reads": 0,
        }

    def test_access_split_from_report(self, baseline):
        split = baseline.access_split_pct
        assert split["weights"] == pytest.approx(100 * FIXTURE_WEIGHT_READS / FIXTURE_TOTAL)

    def test_labels(self, fixture_profile, fixture_ops, config, baseline):
        report = clustered(fixture_profile, fixture_ops, config, baseline, bits=5)
        assert report.label == "5-bit"
        named = frame_energy(fixture_profile, fixture_ops, config, label="reference")
        assert named.label == "reference"

    @given(
        counts=st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
        ),
        bump=st.sampled_from(["weight_reads", "input_reads", "output_reads", "output_writes"]),
        extra=st.integers(min_value=1, max_value=10**6),
    )
    def test_energy_monotone_in_access_counts(self, counts, bump, extra):
        assume(any(counts))
        cfg = EnergyConfig(
            dram_read_miss_pj=2937,
            dram_read_hit_pj=1735,
            dram_write_miss_pj=2953,
            dram_write_hit_pj=1859,
            row_miss_fraction=1 / 64,
        )
        ops = OpProfile(macs=10)
        profile = AccessProfile(*counts)
        grown = AccessProfile(**{
            **{f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)},
            bump: getattr(profile, bump) + extra,
        })
        before = frame_energy(profile, ops, cfg)
        after = frame_energy(grown, ops, cfg)
        assert after.total_energy_mj >= before.total_energy_mj

    def test_empty_profile_rejected(self, config):
        with pytest.raises(ValueError, match="empty"):
            frame_energy(AccessProfile(), OpProfile(macs=1), config)


def test_all_lists_only_what_energy_defines():
    # a class or function that energy imports is listed where it is defined
    foreign = [
        name for name in energy.__all__
        if getattr(getattr(energy, name), "__module__", energy.__name__) != energy.__name__
    ]
    assert foreign == []
