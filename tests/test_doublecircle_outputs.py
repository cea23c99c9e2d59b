"""Double-circle layer: pinned CLI outputs, table memory, report input checks."""

import hashlib
import tracemalloc

import pytest

from chirotri import OutOfRange, QkTable, asymptotic_report
from chirotri.cli import run_cli


def test_qk_table_keeps_one_row_at_a_time():
    # every row of Q_1..Q_400 together takes about 19 MB; three lists of
    # 400 ints (totals, derivatives, u^2 coefficients) take well under 1 MB
    tracemalloc.start()
    try:
        table = QkTable(400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.total(400) > 0
    assert peak < 4 * 2 ** 20


def test_asymptotic_report_needs_a_k():
    with pytest.raises(OutOfRange):
        asymptotic_report([])
    with pytest.raises(OutOfRange):
        asymptotic_report([2, 5])


# k - 2 passes 500 below --kmax 600, where mpmath stops computing 12^(k-2)
# exactly; at 12 printed digits the three precisions print the same table
_DC_TABLE = {"csv": "a3267cddb6410eb4", "json": "c25ed89b36cfa682"}


@pytest.mark.parametrize("precision", [15, 50, 1000])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dc_table_outputs_are_pinned(capsys, precision, fmt):
    assert run_cli(["--precision", str(precision), "dc-table", "--kmax", "600",
                    "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _DC_TABLE[fmt]


@pytest.mark.parametrize("x, digests", [
    ("1/20", ("06f29905d6406d03", "f1c622f4035a2057", "f1c622f4035a2057")),
    ("1/13", ("30b59ee989dbda9c", "46299ffa916c9d38", "94f0f63288b16730")),
    ("2/25", ("bfcba1e2d21642eb", "a4d4c9b8ad74f0b4", "a4d4c9b8ad74f0b4")),
])
def test_kernel_report_outputs_are_pinned(capsys, x, digests):
    for precision, digest in zip((15, 30, 300), digests):
        assert run_cli(["--precision", str(precision), "kernel-report",
                        "--x", x]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, precision
