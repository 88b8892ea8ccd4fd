"""Golden-report regression suite: serial == parallel == checked-in golden.

These tests pin the numbers of five representative sweep matrices so the
sharded executor (or any refactor underneath it) can never silently drift
the science.  Comparison is on canonical report JSON — every field except
the volatile ``elapsed_ms``/``reused_fit`` pair, byte-for-byte.  If a
change intentionally moves the numbers, regenerate with::

    PYTHONPATH=src python tests/goldens.py --write
"""

import json

import pytest

from repro.api import canonical_report_json

from tests.goldens import (
    MATRICES,
    compute_golden,
    golden_engine,
    golden_path,
)


@pytest.fixture(scope="module")
def serial_results():
    """Serial canonical JSON per matrix, computed once for the module."""
    return {name: compute_golden(name, parallel=1) for name in MATRICES}


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_serial_matches_golden(self, name, serial_results):
        path = golden_path(name)
        assert path.exists(), (
            f"missing golden file {path}; regenerate with "
            "'PYTHONPATH=src python tests/goldens.py --write'"
        )
        assert serial_results[name] == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_parallel_matches_serial(self, name, serial_results):
        """Sharded process execution is byte-identical to the serial path."""
        assert compute_golden(name, parallel=2) == serial_results[name]

    def test_thread_backend_matches_serial(self, serial_results):
        """The thread backend produces the same canonical reports too."""
        engine = golden_engine()
        reports = engine.sweep(
            MATRICES["fig5_matrix"](), parallel=2, backend="thread"
        )
        assert (
            canonical_report_json(reports, indent=2)
            == serial_results["fig5_matrix"]
        )

    def test_goldens_are_canonical(self):
        """Checked-in files contain no volatile fields and parse as JSON."""
        for name in MATRICES:
            payload = json.loads(golden_path(name).read_text(encoding="utf-8"))
            assert isinstance(payload, list) and payload
            for report in payload:
                assert "elapsed_ms" not in report
                assert "reused_fit" not in report
                assert 0.0 <= min(report["success_rates"].values())
                assert max(report["success_rates"].values()) <= 1.0

    def test_fig3_matrix_is_twelve_variants_three_shards(self):
        """The fig3 golden matrix matches the acceptance shape: 12 variants
        over 3 splits, so ``workers>=3`` can fit all shards concurrently."""
        from repro.api import plan_shards

        requests = MATRICES["fig3_matrix"]()
        assert len(requests) == 12
        assert len(plan_shards(requests)) == 3
