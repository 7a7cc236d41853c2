"""Command-line surface: subcommands, exit codes, deterministic output."""

import gc
import io
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from dgdeform.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _family_file(runner, tmp_path, n, variant, extra=()):
    path = tmp_path / f"{variant}{n}.dgm"
    result = runner.invoke(
        main, ["paper-family", "--n", str(n), "--variant", variant, "--out", str(path), *extra]
    )
    assert result.exit_code == 0, result.output
    return path


def test_check_ok(runner, tmp_path):
    path = _family_file(runner, tmp_path, 2, "polynomial")
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0
    assert "d^2 = 0" in result.output


def test_check_malformed_file_exits_2(runner, tmp_path):
    path = tmp_path / "broken.dgm"
    path.write_text("field Q\nmodule V { basis x1 : ; }\n")
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2


def test_check_non_differential_exits_1(runner, tmp_path):
    path = tmp_path / "bad.dgm"
    path.write_text(
        "field Q\n"
        "module V {\n  basis x4 : 2, x6 : 3, x8 : 4;\n}\n"
        "map d degree -1 {\n  x6 -> x4;\n  x8 -> x6;\n}\n"
    )
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1


def test_missing_file_exits_2(runner):
    result = runner.invoke(main, ["check", "/no/such/file.dgm"])
    assert result.exit_code == 2


def test_usage_error_exits_2(runner):
    result = runner.invoke(main, ["cohomology"])  # missing required args
    assert result.exit_code == 2


def test_cohomology_output(runner, tmp_path):
    path = tmp_path / "tiny.dgm"
    path.write_text(
        "field Q\nmodule V {\n  basis y1 : 1, y2 : 2;\n}\nmap d degree -1 {\n  y2 -> y1;\n}\n"
    )
    result = runner.invoke(main, ["cohomology", str(path), "--p", "0", "--p", "1"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "H^0 dim=0"
    assert "H^1 dim=0" in result.output


def test_obstruction_output(runner, tmp_path):
    path = _family_file(runner, tmp_path, 2, "obstructed")
    result = runner.invoke(main, ["obstruction", str(path), "--order", "2"])
    assert result.exit_code == 0
    assert result.output == "O_2 = -x4 d/d x8\n"


def test_obstruction_of_huge_order_is_zero_and_fast(runner, tmp_path):
    # three lifts: O_k has no nonzero term once k >= 6
    path = _family_file(runner, tmp_path, 3, "obstructed")
    assert runner.invoke(main, ["obstruction", str(path), "--order", "5"]).output == (
        "O_5 = x9 d/d x14\n"
    )
    assert runner.invoke(main, ["obstruction", str(path), "--order", "7"]).output == "O_7 = 0\n"
    start = time.perf_counter()
    result = runner.invoke(main, ["obstruction", str(path), "--order", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 0
    assert result.output == "O_1000000000 = 0\n"


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_paper_family_unwritable_out_exits_2(runner, tmp_path, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "f.dgm"
    result = runner.invoke(main, ["paper-family", "--n", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_obstruction_needs_deformation_block(runner, tmp_path):
    path = tmp_path / "nodef.dgm"
    path.write_text("field Q\nmodule V { basis x1 : 1, x3 : 2; }\nmap d degree -1 { x3 -> x1; }\n")
    result = runner.invoke(main, ["obstruction", str(path), "--order", "1"])
    assert result.exit_code == 2


def test_deform_obstructed_exits_1(runner, tmp_path):
    path = _family_file(runner, tmp_path, 2, "obstructed")
    result = runner.invoke(main, ["deform", str(path), "--order", "5"])
    assert result.exit_code == 1
    assert "obstructed at order 2" in result.output
    assert "O_2 = -x4 d/d x8" in result.output


def test_deform_canonical_lifts_escape_the_file_obstruction(runner, tmp_path):
    # re-solving from d_1 alone picks lifts whose ladder keeps extending
    path = _family_file(runner, tmp_path, 2, "obstructed")
    result = runner.invoke(main, ["deform", str(path), "--order", "5", "--lifts", "canonical"])
    assert result.exit_code == 0
    assert "status: extended to order 5" in result.output


def test_deform_polynomial_extends(runner, tmp_path):
    path = _family_file(runner, tmp_path, 3, "polynomial")
    result = runner.invoke(main, ["deform", str(path), "--order", "6"])
    assert result.exit_code == 0
    assert "status: extended to order 6" in result.output


def test_trivialize_family_stuck(runner, tmp_path):
    path = _family_file(runner, tmp_path, 2, "polynomial")
    result = runner.invoke(main, ["trivialize", str(path), "--order", "4"])
    assert result.exit_code == 1
    assert "stuck at order 1" in result.output
    assert "definitive non-triviality: yes" in result.output


def test_trivialize_huge_order_is_stuck_at_once(runner, tmp_path):
    # the answer is known at stage 1; the up-front d_t o d_t = 0 check must
    # not walk all order^2 pairs of coefficients
    path = _family_file(runner, tmp_path, 3, "polynomial")
    start = time.perf_counter()
    result = runner.invoke(main, ["trivialize", str(path), "--order", "100000"])
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 1
    assert result.stdout.splitlines()[0] == "status: stuck at order 1"


def test_trivialize_trivial_case(runner, tmp_path):
    # d_t = d + t d is gauge trivial: d = delta(y2 d/d y2)
    path = tmp_path / "tiny.dgm"
    path.write_text(
        "field Q\nmodule V {\n  basis y1 : 1, y2 : 2;\n}\nmap d degree -1 {\n  y2 -> y1;\n}\n"
        "map d1 degree -1 {\n  y2 -> y1;\n}\ndeformation {\n  order 1 : d1;\n}\n"
    )
    result = runner.invoke(main, ["trivialize", str(path), "--order", "3"])
    assert result.exit_code == 0
    assert "trivialized through order 3" in result.output


def test_paper_family_stdout_round_trips(runner):
    result = runner.invoke(
        main, ["paper-family", "--n", "2", "--variant", "polynomial", "--out", "-"]
    )
    assert result.exit_code == 0
    from dgdeform.dsl import parse, render

    doc = parse(result.output)
    assert render(doc) == result.output


def test_verify_paper_reports_obstruction_value(runner):
    result = runner.invoke(main, ["verify-paper", "--n", "3"])
    assert result.exit_code == 0
    assert "O_3 = -x10 d/d x14" in result.output
    assert "all checks passed" in result.output


def test_verify_paper_gf_field(runner):
    result = runner.invoke(
        main, ["verify-paper", "--n", "2", "--variant", "obstructed", "--field", "GF:5"]
    )
    assert result.exit_code == 0
    assert "over GF(5)" in result.output


def test_verify_paper_bad_field_usage(runner):
    result = runner.invoke(main, ["verify-paper", "--n", "2", "--field", "R"])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", [
    ["verify-paper", "--n", "2"],
    ["paper-family", "--n", "2", "--out", "-"],
])
@pytest.mark.parametrize("field", ["GF:4", "GF:1", "GF:x", "GF:", "GF:3317044064679887385961981"])
def test_bad_field_modulus_exits_2(runner, command, field):
    result = runner.invoke(main, [*command, "--field", field])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def test_trivialize_needs_deformation_block(runner, tmp_path):
    path = tmp_path / "nodef.dgm"
    path.write_text("field Q\nmodule V { basis x1 : 1, x3 : 2; }\nmap d degree -1 { x3 -> x1; }\n")
    result = runner.invoke(main, ["trivialize", str(path), "--order", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: file has no deformation block\n"


def test_output_is_deterministic(runner, tmp_path):
    path = _family_file(runner, tmp_path, 3, "obstructed")
    outs = set()
    for _ in range(2):
        outs.add(runner.invoke(main, ["deform", str(path), "--order", "5"]).output)
        outs.add(runner.invoke(main, ["verify-paper", "--n", "3"]).output)
    assert len(outs) == 2
    files = set()
    for name in ("a.dgm", "b.dgm"):
        p = tmp_path / name
        runner.invoke(main, ["paper-family", "--n", "4", "--variant", "infinite", "--out", str(p)])
        files.add(p.read_bytes())
    assert len(files) == 1


@pytest.mark.parametrize("args", [
    ["verify-paper", "--n", "2", "--variant", "obstructed"],
    ["verify-paper", "--n", "2", "--field", "GF:4"],
])
def test_in_process_runs_release_their_streams(args):
    # a caller that captures each run's stdout and stderr, as an embedding
    # program or a benchmark does, must get both streams back
    refs = []
    for _ in range(3):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit):
            main.main(args=args, prog_name="dgdeform")
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize("command, extra", [("check", []), ("cohomology", ["--p", "0"])])
def test_non_utf8_file_exits_2(runner, tmp_path, command, extra):
    path = tmp_path / "latin1.dgm"
    path.write_bytes(b"field Q\xff\n")
    result = runner.invoke(main, [command, str(path), *extra])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


# -- hostile input ------------------------------------------------------------------

_SPLICES = st.one_of(
    st.sampled_from(["\u00b2", "\x00", "-", "/", ";", "{", "}", " "]).map(str.encode),
    # around the interpreter's 4300-digit int conversion limit
    st.sampled_from([1, 4300, 4301, 6000]).map(lambda n: b"7" * n),
    st.text(max_size=4).map(str.encode),
)


@st.composite
def _mutations(draw, base: bytes):
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        # half the splices land where an integer literal starts
        starts = [k for k in range(1, len(data)) if data[k - 1] == 32 and 48 <= data[k] <= 57]
        i = draw(st.one_of(st.integers(0, len(data)), st.sampled_from(starts or [0])))
        j = draw(st.integers(i, min(len(data), i + 4)))
        data[i:j] = draw(_SPLICES)
    return bytes(data)


@pytest.fixture(scope="module")
def family_bytes():
    result = CliRunner().invoke(
        main, ["paper-family", "--n", "3", "--variant", "obstructed", "--out", "-"]
    )
    assert result.exit_code == 0
    return result.stdout.encode()


@pytest.fixture(scope="module")
def hostile_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input.dgm"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_survives_hostile_bytes(family_bytes, hostile_path, data):
    raw = data.draw(st.one_of(st.binary(max_size=200), _mutations(family_bytes)))
    hostile_path.write_bytes(raw)
    result = CliRunner().invoke(main, ["check", str(hostile_path)])
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
