"""``memory_cycle`` is capped so every accepted point replays exactly.

The cap is on the line fill, ``memory_cycle * line_size / bus_width``
(:data:`MAX_FILL_CYCLES`), derived from the trace caps so that every
accepted simulate, sweep and campaign point sits inside the per-fill
replay's exact bound (:func:`repro.cpu.replay._windowed_exact`).
"""

import math

import pytest

from repro.campaign.spec import validate_spec
from repro.cpu.replay import _windowed_exact
from repro.obs.schemas import SchemaError
from repro.service import schemas
from repro.service.schemas import (
    MAX_ALU_PER_REFERENCE,
    MAX_FILL_CYCLES,
    validate_simulate,
    validate_sweep,
)
from repro.trace.loops import Matrix, matmul_instructions

#: Largest accepted beta_m for a 32-byte line on a 4-byte bus (8 transfers).
LIMIT_8 = MAX_FILL_CYCLES / 8
MESSAGE_8 = (
    f"must be <= {LIMIT_8} (a line fill of 8 bus transfers may take at "
    f"most {MAX_FILL_CYCLES} cycles)"
)


def above(value):
    return math.nextafter(value, math.inf)


class TestDerivation:
    def test_cap_is_the_largest_fill_inside_the_exact_bound(self):
        scale = 2 * schemas._MAX_REFERENCES + 2  # fills + dirty + 2
        n = schemas._MAX_TRACE_INSTRUCTIONS
        assert _windowed_exact(float(MAX_FILL_CYCLES), scale, n)
        assert not _windowed_exact(float(MAX_FILL_CYCLES + 1), scale, n)

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    @pytest.mark.parametrize("tile", [None, 1, 2, 3])
    def test_matmul_references_stay_under_four_n_cubed(self, n, tile):
        a = Matrix(0, n, n, 8)
        b = Matrix(a.bytes, n, n, 8)
        c = Matrix(a.bytes + b.bytes, n, n, 8)
        assert len(matmul_instructions(a, b, c, tile)) <= 4 * n**3

    def test_alu_per_reference_is_capped(self):
        spec = {"kind": "matmul", "n": 4}
        ok = validate_simulate(
            {"trace": {**spec, "alu_per_reference": MAX_ALU_PER_REFERENCE}}
        )
        assert ok["trace"]["alu_per_reference"] == MAX_ALU_PER_REFERENCE
        with pytest.raises(SchemaError) as excinfo:
            validate_simulate(
                {"trace": {**spec, "alu_per_reference": MAX_ALU_PER_REFERENCE + 1}}
            )
        assert str(excinfo.value) == (
            f"$.params.trace.alu_per_reference: must be <= {MAX_ALU_PER_REFERENCE}"
        )


class TestSimulate:
    def test_boundary(self):
        out = validate_simulate({"memory_cycle": LIMIT_8})
        assert out["memory_cycle"] == LIMIT_8
        with pytest.raises(SchemaError) as excinfo:
            validate_simulate({"memory_cycle": above(LIMIT_8)})
        assert str(excinfo.value) == f"$.params.memory_cycle: {MESSAGE_8}"

    def test_limit_follows_the_transfers_per_line(self):
        params = {"cache": {"line_size": 64}, "bus_width": 16}  # 4 transfers
        limit = MAX_FILL_CYCLES / 4
        assert validate_simulate({**params, "memory_cycle": limit})
        with pytest.raises(SchemaError, match="a line fill of 4 bus"):
            validate_simulate({**params, "memory_cycle": above(limit)})

    def test_past_2_pow_53_point_is_rejected(self):
        # wave5 at beta_m = 2**45 on 8 KiB/32 B/2-way: replay and the step
        # simulator part once time passes 2**53.
        with pytest.raises(SchemaError, match=r"\$\.params\.memory_cycle"):
            validate_simulate(
                {
                    "trace": {"kind": "spec92", "name": "wave5",
                              "instructions": 2500, "seed": 0},
                    "cache": {"total_bytes": 8192, "line_size": 32,
                              "associativity": 2},
                    "memory_cycle": 2.0**45,
                }
            )


class TestSweep:
    def test_boundary_uses_the_longest_line(self):
        params = {
            "caches": [{"line_size": 16}, {"line_size": 32}],
            "policies": ["BL"],
            "memory_cycles": [8.0, LIMIT_8],
        }
        assert validate_sweep(params)["memory_cycles"] == [8.0, LIMIT_8]
        with pytest.raises(SchemaError) as excinfo:
            validate_sweep({**params, "memory_cycles": [8.0, above(LIMIT_8)]})
        assert str(excinfo.value) == f"$.params.memory_cycles[1]: {MESSAGE_8}"


class TestCampaignSpec:
    def test_boundary(self):
        spec = {
            "traces": [{"kind": "spec92", "instructions": 1000}],
            "caches": [{"line_size": 32}],
            "memory_cycles": [LIMIT_8],
        }
        assert validate_spec(spec)["memory_cycles"] == [LIMIT_8]
        with pytest.raises(SchemaError) as excinfo:
            validate_spec({**spec, "memory_cycles": [above(LIMIT_8)]})
        assert str(excinfo.value) == f"$.memory_cycles[0]: {MESSAGE_8}"
