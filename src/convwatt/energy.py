"""Energy and bandwidth model for DRAM, SRAM and arithmetic.

Element access counts (from the traffic model) are packed into 64-bit bus
transactions, priced with row-buffer-aware DRAM access energies, and combined
with SRAM table lookups and a floating-point operation census into a
per-frame energy report. Clustered weights pack several codebook indexes
into each 32-bit word, cutting both bus transactions and DRAM energy.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources

from .cluster import _check_integers, indexes_per_word
from .traffic import AccessProfile, OpProfile

MJ_PER_PJ = 1e-9
# bits of one fp32 element; a bus transaction carries bus_bits / 32 of them
WORD_BITS = 32

# Published 45 nm estimates for fp32 arithmetic, the base that the packaged
# [fp] prices scale (see data/default-energy.cfg). Compare/select is priced
# like a multiply.
BASE_FP32_ADD_PJ = 0.9
BASE_FP32_MUL_PJ = 3.7

FP_OPS = ("add", "sub", "mul", "div", "exp", "sqrt")


class EnergyConfigError(ValueError):
    """Malformed or incomplete energy configuration."""


def _parse_fraction(text: str) -> float:
    """Parse a decimal or a 'p/q' fraction."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if float(den) == 0.0:
            raise EnergyConfigError(f"fraction {text!r} has a zero denominator")
        return float(num) / float(den)
    return float(text)


def _parse_value(parse, section: str, key: str, value: str):
    """parse(value), with a failure named by section, key and value."""
    try:
        return parse(value)
    except ValueError as exc:
        raise EnergyConfigError(f"[{section}] {key} = {value!r}: {exc}") from exc


@dataclass(frozen=True)
class EnergyConfig:
    """Access energies, bus geometry and system-level rates."""

    dram_read_miss_pj: float
    dram_read_hit_pj: float
    dram_write_miss_pj: float
    dram_write_hit_pj: float
    row_miss_fraction: float
    bus_bits: int = 64
    dram_peak_gbps: float = 204.8
    target_fps: float = 25.0
    sram_read_pj: dict[int, float] = field(
        default_factory=lambda: {5: 0.36, 6: 0.40, 7: 0.52, 8: 0.85}
    )
    fp_pj: dict[str, float] = field(
        default_factory=lambda: dict(
            add=BASE_FP32_ADD_PJ,
            sub=BASE_FP32_MUL_PJ,
            mul=BASE_FP32_MUL_PJ,
            div=BASE_FP32_MUL_PJ,
            exp=BASE_FP32_MUL_PJ,
            sqrt=BASE_FP32_MUL_PJ,
        )
    )

    def __post_init__(self):
        if not 0.0 < self.row_miss_fraction <= 1.0:
            raise EnergyConfigError("row_miss_fraction must lie in (0, 1]")
        if self.bus_bits < WORD_BITS or self.bus_bits % WORD_BITS:
            raise EnergyConfigError("bus_bits must be a positive multiple of 32")
        for name in ("dram_peak_gbps", "target_fps"):
            if getattr(self, name) <= 0:
                raise EnergyConfigError(f"{name} must be positive")

    @property
    def avg_read_pj(self) -> float:
        return avg_dram_energy(
            self.dram_read_miss_pj, self.dram_read_hit_pj, self.row_miss_fraction
        )

    @property
    def avg_write_pj(self) -> float:
        return avg_dram_energy(
            self.dram_write_miss_pj, self.dram_write_hit_pj, self.row_miss_fraction
        )


def avg_dram_energy(miss_pj: float, hit_pj: float, miss_fraction: float) -> float:
    """Row-buffer-weighted average access energy; EnergyConfig checks the
    miss fraction, in (0, 1]."""
    return miss_fraction * miss_pj + (1.0 - miss_fraction) * hit_pj


_DRAM_KEYS = {
    "read_row_miss_pj": "dram_read_miss_pj",
    "read_row_hit_pj": "dram_read_hit_pj",
    "write_row_miss_pj": "dram_write_miss_pj",
    "write_row_hit_pj": "dram_write_hit_pj",
    "row_miss_fraction": "row_miss_fraction",
    "bus_bits": "bus_bits",
    "peak_bandwidth_gbps": "dram_peak_gbps",
}


def load_energy_config(path: str | None = None) -> EnergyConfig:
    """Load the energy configuration file at path, or the packaged defaults
    when path is None.

    Unknown sections or keys are rejected so typos fail loudly.
    """
    if path is None:
        text = (
            resources.files("convwatt").joinpath("data/default-energy.cfg").read_text()
        )
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    return parse_energy_config(text)


def parse_energy_config(text: str) -> EnergyConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise EnergyConfigError(f"bad energy config: {exc}") from exc
    known = {"dram", "sram", "fp", "system"}
    extra = set(parser.sections()) - known
    if extra:
        raise EnergyConfigError(f"unknown config sections: {sorted(extra)}")
    kwargs = {}
    if "dram" not in parser:
        raise EnergyConfigError("missing [dram] section")
    for key, value in parser["dram"].items():
        if key not in _DRAM_KEYS:
            raise EnergyConfigError(f"unknown [dram] key {key!r}")
        attr = _DRAM_KEYS[key]
        parse = int if attr == "bus_bits" else _parse_fraction
        kwargs[attr] = _parse_value(parse, "dram", key, value)
    missing = {
        f.name for f in fields(EnergyConfig)
        if f.default is MISSING and f.default_factory is MISSING
    } - set(kwargs)
    if missing:
        raise EnergyConfigError(f"missing [dram] settings: {sorted(missing)}")
    if "sram" in parser:
        table = {}
        for key, value in parser["sram"].items():
            if not (key.startswith("table_read_") and key.endswith("bit_pj")):
                raise EnergyConfigError(f"unknown [sram] key {key!r}")
            width = key[len("table_read_") : -len("bit_pj")]
            bits = _parse_value(int, "sram", key, width)
            table[bits] = _parse_value(float, "sram", key, value)
        kwargs["sram_read_pj"] = table
    if "fp" in parser:
        fp = {}
        for key, value in parser["fp"].items():
            if not key.endswith("_pj") or key[:-3] not in FP_OPS:
                raise EnergyConfigError(f"unknown [fp] key {key!r}")
            fp[key[:-3]] = _parse_value(float, "fp", key, value)
        kwargs["fp_pj"] = fp
    if "system" in parser:
        for key, value in parser["system"].items():
            if key != "target_fps":
                raise EnergyConfigError(f"unknown [system] key {key!r}")
            kwargs["target_fps"] = _parse_value(float, "system", key, value)
    return EnergyConfig(**kwargs)


@dataclass(frozen=True)
class ClusteringChoice:
    """Codebook geometry of a clustered run: index width and table count."""

    bits: int
    n_tables: int = 1

    def __post_init__(self):
        _check_integers(self, "bits", "n_tables")
        if not 1 <= self.bits <= 8:
            raise ValueError("bits must lie in 1..8")
        if self.n_tables < 1:
            raise ValueError("n_tables must be >= 1")

    @property
    def table_entries(self) -> int:
        return self.n_tables * (1 << self.bits)


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def dram_accesses(
    profile: AccessProfile,
    bits: int | None = None,
    table_elements: int = 0,
    bus_bits: int = 64,
) -> tuple[int, int]:
    """Pack element accesses into bus transactions: (reads, writes).

    fp32 elements pack bus_bits/32 per transaction. When bits is given,
    weight reads carry packed codebook indexes instead, fitting
    (bus_bits/32) * floor(32/bits) per transaction. Each access category is
    rounded up on its own; streams are never coalesced across categories.
    """
    words = bus_bits // WORD_BITS
    fp32_per_access = words
    if bits is None:
        weights_per_access = fp32_per_access
    else:
        weights_per_access = words * indexes_per_word(bits)
    reads = (
        _ceil_div(profile.weight_reads, weights_per_access)
        + _ceil_div(table_elements, fp32_per_access)
        + _ceil_div(profile.input_reads, fp32_per_access)
        + _ceil_div(profile.output_reads, fp32_per_access)
    )
    writes = _ceil_div(profile.output_writes, fp32_per_access)
    return reads, writes


def fp_energy_mj(ops: OpProfile, fp_pj: dict[str, float]) -> float:
    """Arithmetic energy in mJ. A MAC is priced as one add plus one multiply;
    ops missing from the table fall back to the multiply price."""
    mul = fp_pj.get("mul", BASE_FP32_MUL_PJ)
    price = {op: fp_pj.get(op, mul) for op in FP_OPS}
    pj = ops.macs * (price["add"] + price["mul"])
    for op in FP_OPS:
        pj += getattr(ops, f"fp_{op}") * price[op]
    return pj * MJ_PER_PJ


def sram_table_bytes(bits: int) -> int:
    """Size of one fp32 codebook lookup table in bytes."""
    if not 5 <= bits <= 8:
        raise EnergyConfigError(f"no hardware table geometry for {bits}-bit indexes")
    return (1 << bits) * 4


def sram_energy_mj(weight_reads: int, bits: int, config: EnergyConfig) -> float:
    """Energy of codebook lookups: one SRAM table read per weight element.

    Static SRAM power is taken as negligible and not modeled.
    """
    if bits not in config.sram_read_pj:
        raise EnergyConfigError(
            f"no SRAM read energy configured for {bits}-bit tables "
            f"(available: {sorted(config.sram_read_pj)})"
        )
    return weight_reads * config.sram_read_pj[bits] * MJ_PER_PJ


def clustered_size_bits(n_weights: int, bits: int, table_entries: int) -> int:
    """Total clustered footprint in bits: packed indexes plus fp32 tables."""
    return n_weights * bits + table_entries * WORD_BITS


def size_reduction_factor(n_weights: int, bits: int, table_entries: int) -> float:
    """Tight weight storage shrink factor relative to fp32: exact index bits
    plus the fp32 tables, 32n / (n*bits + entries*32).

    Word-aligned packing wastes the remainder of each 32-bit word, so its
    factor is indexes_per_word(bits).
    """
    if n_weights < 1:
        raise ValueError("n_weights must be >= 1")
    return (n_weights * WORD_BITS) / clustered_size_bits(n_weights, bits, table_entries)


@dataclass(frozen=True)
class EnergyReport:
    """Per-frame energy and bandwidth summary for one configuration.

    profile is the AccessProfile that was priced; the element counts of
    to_dict and access_split_pct are read from it.
    """

    label: str
    weight_bits: int | None
    profile: AccessProfile
    table_read_elements: int
    dram_read_accesses: int
    dram_write_accesses: int
    dram_bytes: int
    bandwidth_gbps: float
    max_fps: float
    max_fps_peak: float
    dram_energy_mj: float
    sram_energy_mj: float
    fp_energy_mj: float
    relative_memory_energy_pct: float
    relative_overall_energy_pct: float

    @property
    def memory_energy_mj(self) -> float:
        return self.dram_energy_mj + self.sram_energy_mj

    @property
    def total_energy_mj(self) -> float:
        return self.memory_energy_mj + self.fp_energy_mj

    @property
    def access_split_pct(self) -> dict[str, float]:
        """Share of element accesses by bucket: weights / inputs / outputs."""
        p = self.profile
        total = p.weight_reads + p.input_reads + p.output_reads + p.output_writes
        if not total:
            return {"weights": 0.0, "inputs": 0.0, "outputs": 0.0}
        return {
            "weights": 100.0 * p.weight_reads / total,
            "inputs": 100.0 * p.input_reads / total,
            "outputs": 100.0 * (p.output_reads + p.output_writes) / total,
        }

    def to_dict(self) -> dict:
        data = {
            "label": self.label,
            "weight_bits": self.weight_bits,
            "elements": {**asdict(self.profile), "table_reads": self.table_read_elements},
            "dram": {
                "read_accesses": self.dram_read_accesses,
                "write_accesses": self.dram_write_accesses,
                "bytes_per_frame": self.dram_bytes,
                "bandwidth_gbps": self.bandwidth_gbps,
            },
            "fps": {"max_demand": self.max_fps, "max_peak": self.max_fps_peak},
            "energy_mj": {
                "dram": self.dram_energy_mj,
                "sram": self.sram_energy_mj,
                "fp": self.fp_energy_mj,
                "memory": self.memory_energy_mj,
                "total": self.total_energy_mj,
            },
            "relative_pct": {
                "memory_energy": self.relative_memory_energy_pct,
                "overall_energy": self.relative_overall_energy_pct,
            },
            "access_split_pct": self.access_split_pct,
        }
        return data


def frame_energy(
    profile: AccessProfile,
    ops: OpProfile,
    config: EnergyConfig,
    clustering: ClusteringChoice | None = None,
    baseline: EnergyReport | None = None,
    label: str | None = None,
) -> EnergyReport:
    """Price one inference frame.

    With clustering, weight reads become packed index reads, every weight
    element costs one SRAM table lookup, and the fp32 tables themselves are
    fetched from DRAM once per frame. Relative percentages compare against
    the given baseline report (or against this report itself).
    """
    if clustering is None:
        bits = None
        table_elements = 0
        sram_mj = 0.0
        if label is None:
            label = "baseline"
    else:
        bits = clustering.bits
        table_elements = clustering.table_entries
        sram_mj = sram_energy_mj(profile.weight_reads, bits, config)
        if label is None:
            label = f"{bits}-bit"
    reads, writes = dram_accesses(
        profile, bits=bits, table_elements=table_elements, bus_bits=config.bus_bits
    )
    if not reads and not writes:
        raise ValueError("access profile is empty; nothing to price")
    bus_bytes = config.bus_bits // 8
    total_bytes = (reads + writes) * bus_bytes
    dram_mj = (reads * config.avg_read_pj + writes * config.avg_write_pj) * MJ_PER_PJ
    fp_mj = fp_energy_mj(ops, config.fp_pj)
    bandwidth_gbps = total_bytes * config.target_fps / 1e9
    max_fps_peak = config.dram_peak_gbps * 1e9 / total_bytes
    if baseline is None:
        baseline_bytes = total_bytes
        baseline_memory = dram_mj + sram_mj
        baseline_total = baseline_memory + fp_mj
    else:
        baseline_bytes = baseline.dram_bytes
        baseline_memory = baseline.memory_energy_mj
        baseline_total = baseline.total_energy_mj
    max_fps = config.target_fps * baseline_bytes / total_bytes
    return EnergyReport(
        label=label,
        weight_bits=bits,
        profile=profile,
        table_read_elements=table_elements,
        dram_read_accesses=reads,
        dram_write_accesses=writes,
        dram_bytes=total_bytes,
        bandwidth_gbps=bandwidth_gbps,
        max_fps=max_fps,
        max_fps_peak=max_fps_peak,
        dram_energy_mj=dram_mj,
        sram_energy_mj=sram_mj,
        fp_energy_mj=fp_mj,
        relative_memory_energy_pct=100.0 * (dram_mj + sram_mj) / baseline_memory,
        relative_overall_energy_pct=100.0 * (dram_mj + sram_mj + fp_mj) / baseline_total,
    )


__all__ = [
    "BASE_FP32_ADD_PJ",
    "BASE_FP32_MUL_PJ",
    "ClusteringChoice",
    "EnergyConfig",
    "EnergyConfigError",
    "EnergyReport",
    "avg_dram_energy",
    "clustered_size_bits",
    "dram_accesses",
    "fp_energy_mj",
    "frame_energy",
    "load_energy_config",
    "parse_energy_config",
    "size_reduction_factor",
    "sram_energy_mj",
    "sram_table_bytes",
]
