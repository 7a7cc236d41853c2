"""Command-line surface: subcommands, exit codes, deterministic output."""

import gc
import io
import re
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from dgdeform.cli import main
from dgdeform.deform import MAX_ORDER
from dgdeform.dsl import MAX_GENERATORS, load_complex, parse
from dgdeform.family import MAX_TRUNCATION
from conftest import count_reductions, oracle_nullity


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


def test_cohomology_reduces_each_differential_once(runner, tmp_path, monkeypatch):
    # H(V)* and H(V) serve every p and no delta^p is reduced: per direction
    # the differential costs one kernel elimination and one class
    # elimination, both at the first p, and the other two p reduce nothing.
    # This d sends each generator to at most one other, and no two to the
    # same one, so the rows of d (of d^T) hold rank d columns, and the
    # boundaries, one generator each, hold rank d free coordinates
    path = _family_file(runner, tmp_path, 3, "obstructed")
    cx, _, _ = load_complex(parse(path.read_text()))
    rank = cx.module.dim - oracle_nullity(cx)
    calls = count_reductions(monkeypatch)
    result = runner.invoke(main, ["cohomology", str(path), "--p", "-1", "--p", "0", "--p", "1"])
    assert result.exit_code == 0
    assert calls == [rank] * 4


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


def test_largest_family_file_reads_back_and_one_more_generator_exits_2(runner, tmp_path):
    path = tmp_path / "cap.dgm"
    result = runner.invoke(main, ["paper-family", "--n", "2", "--truncate", str(MAX_TRUNCATION),
                                  "--out", str(path)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0 and f"dim {MAX_GENERATORS}," in result.stdout
    text = path.read_text().replace(";\n}", ", extra : 0;\n}", 1)
    path.write_text(text)
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: line 3, col ")
    assert result.stderr.endswith(f"declares more than {MAX_GENERATORS} generators\n")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["paper-family", "--n", "2", "--truncate", "100000000", "--out", "-"],
    ["paper-family", "--n", "100000000", "--out", "-"],
    ["verify-paper", "--n", "100000000"],
    ["verify-paper", "--n", "100000000", "--variant", "infinite", "--field", "GF:5"],
])
def test_truncation_past_the_cap_exits_2_at_once(runner, args):
    # the cap is checked on the spec, before any module or map is built
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: truncation ") and "exceeds the cap" in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_paper_family_unwritable_out_exits_2(runner, tmp_path, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "f.dgm"
    result = runner.invoke(main, ["paper-family", "--n", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_canonical_deform_over_a_long_zero_tail_is_fast(runner, tmp_path):
    # the canonical lifts of this member vanish from some order on; each O_k
    # sums only nonzero lift pairs, so the zero tail costs one cheap rung an order
    path = _family_file(runner, tmp_path, 3, "infinite")
    start = time.perf_counter()
    result = runner.invoke(main, ["deform", str(path), "--order", "10000", "--lifts", "canonical"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1] == "status: extended to order 10000"
    assert elapsed < 20


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


@pytest.mark.parametrize("args", [
    ["deform", "--order", str(10**12)],
    ["deform", "--order", str(10**12), "--lifts", "canonical"],
    ["trivialize", "--order", str(10**12)],
])
def test_order_past_the_cap_exits_2_at_once(runner, tmp_path, args):
    # the cap is checked before any rung runs or any coefficient is stored
    path = _family_file(runner, tmp_path, 3, "infinite")
    start = time.perf_counter()
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and f"exceeds the cap {MAX_ORDER}" in result.stderr
    assert result.stderr.count("\n") == 1


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


def test_verify_paper_all_skips_polynomial_below_n_2(runner):
    # asked for by name, the variant is an error instead (see the one-line cases)
    result = runner.invoke(main, ["verify-paper", "--n", "1"])
    assert result.exit_code == 0
    assert "polynomial" not in result.stdout
    assert result.stdout.count("\n== ") == 1 and result.stdout.startswith("== obstructed ")


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


_NO_DEFORMATION = (
    "field Q\nmodule V { basis x1 : 1, x3 : 2; }\nmap d degree -1 { x3 -> x1; }\n"
)


@pytest.mark.parametrize("args, message", [
    # errors the commands find themselves
    (["paper-family", "--n", "2", "--field", "GF:x", "--out", "-"],
     "field modulus must be an integer, got 'x'"),
    # int() takes these, the file format's ASCII digits do not
    (["paper-family", "--n", "2", "--field", "GF:+5", "--out", "-"],
     "field modulus must be an integer, got '+5'"),
    (["paper-family", "--n", "2", "--field", "GF: 5", "--out", "-"],
     "field modulus must be an integer, got ' 5'"),
    (["paper-family", "--n", "2", "--field", "GF:\u0665", "--out", "-"],
     "field modulus must be an integer, got '\u0665'"),
    (["verify-paper", "--n", "2", "--field", "GF:5_0"],
     "field modulus must be an integer, got '5_0'"),
    (["check", "{tmp}/missing.dgm"], "[Errno 2] No such file or directory: '{tmp}/missing.dgm'"),
    (["check", "{latin1}"],
     "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
    (["obstruction", "{nodef}", "--order", "1"], "file has no deformation block"),
    (["deform", "{nodef}", "--order", "1"], "file has no deformation block"),
    (["trivialize", "{nodef}", "--order", "1"], "file has no deformation block"),
    (["obstruction", "{obs}", "--order", "0"], "order must be >= 1"),
    (["paper-family", "--n", "2", "--out", "{tmp}/missing/f.dgm"],
     "[Errno 2] No such file or directory: '{tmp}/missing/f.dgm'"),
    # click's usage errors
    (["obstruction", "{obs}", "--order", "abc"],
     "Invalid value for '--order': 'abc' is not a valid integer."),
    (["obstruction", "{obs}"], "Missing option '--order'."),
    (["frobnicate"], "No such command 'frobnicate'."),
    (["verify-paper", "--n", "2", "--field", "Q5"], "field must be 'Q' or 'GF:<p>', got 'Q5'"),
    ([], "Missing command."),
    (["--bogus", "check", "{obs}"], "No such command '--bogus'."),
    # library rules on flag values
    (["trivialize", "{obs}", "--order", "-1"], "order must be >= 0, got -1"),
    (["verify-paper", "--n", "1", "--variant", "polynomial"],
     "the polynomial variant needs n >= 2"),
], ids=["field-modulus", "field-modulus-sign", "field-modulus-space",
        "field-modulus-arabic-indic-digit", "field-modulus-underscore", "missing-file",
        "non-utf8", "obstruction-no-block", "deform-no-block", "trivialize-no-block", "order-0", "out-missing-dir", "order-not-int", "order-missing",
        "unknown-command", "field-format", "no-command", "option-before-command",
        "trivialize-negative-order", "polynomial-below-n-2"])
def test_input_and_usage_errors_print_one_line(runner, tmp_path, args, message):
    (tmp_path / "latin1.dgm").write_bytes(b"field Q\xff\n")
    (tmp_path / "nodef.dgm").write_text(_NO_DEFORMATION)
    names = {
        "tmp": str(tmp_path),
        "latin1": str(tmp_path / "latin1.dgm"),
        "nodef": str(tmp_path / "nodef.dgm"),
        "obs": str(_family_file(runner, tmp_path, 2, "obstructed")),
    }
    result = runner.invoke(main, [a.format(**names) for a in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"error: {message.format(**names)}\n"


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


_UP_DIFFERENTIAL = (
    "field Q\nmodule V {\n  basis a : 1, b : 0;\n}\nmap d degree 1 {\n  b -> a;\n}\n"
)
_DEGREE_0_LIFT = (
    "field Q\nmodule V {\n  basis x1 : 1, x3 : 2;\n}\nmap d degree -1 {\n  x3 -> x1;\n}\n"
    "map d1 degree 0 {\n  x1 -> x1;\n}\ndeformation {\n  order 1 : d1;\n}\n"
)


@pytest.mark.parametrize("text, command, extra", [
    # d of degree +1 passes `check` (d^2 = 0) but has no coboundary operator
    (_UP_DIFFERENTIAL, "cohomology", ["--p", "0"]),
    # C^5 is empty, and its H^5 is not printed before the error
    (_UP_DIFFERENTIAL, "cohomology", ["--p", "5", "--p", "0"]),
    # a lift of map degree 0 is not a deformation term
    (_DEGREE_0_LIFT, "obstruction", ["--order", "2"]),
], ids=["cohomology-degree-1-differential", "cohomology-empty-degree-first",
        "obstruction-degree-0-lift"])
def test_wrong_map_degree_exits_2(runner, tmp_path, text, command, extra):
    path = tmp_path / "degree.dgm"
    path.write_text(text)
    assert runner.invoke(main, ["check", str(path)]).exit_code == 0
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


# one number of a well-formed file, so that the file still parses and the run
# reaches the command: a term's coefficient, a basis degree or an order
_TWEAKS = {
    "coefficient": (r"(?<=-> )-?(?=x\d)",
                    st.sampled_from(["0", "2", "-1", "-2", "3", "1/2", "-3/4", "5/3"]).map("{}*".format)),
    "degree": (r"(?<=: )-?\d+(?=[,;])", st.integers(-3, 12).map(str)),
    "order": (r"(?<=order )\d+", st.integers(0, 6).map(str)),
}


@st.composite
def _tweaks(draw, base: bytes):
    text = base.decode()
    pattern, values = _TWEAKS[draw(st.sampled_from(sorted(_TWEAKS)))]
    spot = draw(st.sampled_from(list(re.finditer(pattern, text))))
    return (text[:spot.start()] + draw(values) + text[spot.end():]).encode()


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


_HOSTILE_RUNS = (["check"], ["cohomology", "--p", "0"], ["obstruction", "--order", "2"],
                 ["deform", "--order", "3"], ["deform", "--order", "3", "--lifts", "canonical"],
                 ["trivialize", "--order", "3"])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_survives_hostile_bytes(family_bytes, hostile_path, data):
    raw = data.draw(st.one_of(st.binary(max_size=200), _mutations(family_bytes)))
    hostile_path.write_bytes(raw)
    for args in _HOSTILE_RUNS:
        start = time.perf_counter()
        result = CliRunner().invoke(main, [args[0], str(hostile_path), *args[1:]])
        assert time.perf_counter() - start < 5.0, args
        assert result.exit_code in (0, 1, 2), args
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "Traceback" not in result.output, args
        if result.exit_code == 2:
            assert result.stderr.startswith("error: "), args
            assert result.stderr.count("\n") == 1, args


# -- hostile flags ------------------------------------------------------------------

_EDGES = [-10**12, -1, 0, 1, 2, 3, MAX_ORDER + 1, MAX_TRUNCATION + 1, 10**12]
# small integers and the edges; valid orders and truncations near a cap cost
# linear time by design and are left to the pinned --order 10000 and 100000 runs
_INTS = st.one_of(st.sampled_from(_EDGES), st.integers(-3, 8))
_FIELDS = st.one_of(st.sampled_from(["Q", "GF:2", "GF:5", "GF:4", "GF:", "GF:x", "GF:+5",
                                     "GF: 5", "GF:\u0665", "GF:5_0"]),
                    st.text(max_size=6))
_FAMILY_FILES = [(2, "obstructed", "Q"), (3, "polynomial", "Q"), (3, "infinite", "GF:5"),
                 (2, "linear", "GF:2"), (1, "obstructed", "Q")]


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flags")
    runner = CliRunner()
    paths = [str(_family_file(runner, tmp, n, v, ["--field", f])) for n, v, f in _FAMILY_FILES]
    nodef = tmp / "nodef.dgm"
    nodef.write_text(_NO_DEFORMATION)
    return paths + [str(nodef)]


@st.composite
def _invocations(draw, files):
    def flag(name, values=_INTS):
        return [name, str(draw(values))]

    command = draw(st.sampled_from(["check", "cohomology", "obstruction", "deform",
                                    "trivialize", "paper-family", "verify-paper"]))
    if command in ("paper-family", "verify-paper"):
        variants = ["polynomial", "obstructed", "infinite"]
        variants += ["linear"] if command == "paper-family" else ["all"]
        args = [command, *flag("--n"), "--variant", draw(st.sampled_from(variants)),
                *flag("--field", _FIELDS)]
        if command == "paper-family":
            args += ["--out", "-"] + (flag("--truncate") if draw(st.booleans()) else [])
        return args
    args = [command, draw(st.sampled_from(files))]
    if command == "cohomology":
        for _ in range(draw(st.integers(1, 2))):
            args += flag("--p")
    elif command != "check":
        args += flag("--order")
    if command == "deform":
        args += ["--lifts", draw(st.sampled_from(["file", "canonical"]))]
    return args


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_command_survives_hostile_flags(flag_files, data):
    args = data.draw(_invocations(flag_files))
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), args
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    if result.exit_code == 2:
        assert result.stderr.startswith("error: "), args
        assert result.stderr.count("\n") == 1, args


# -- hostile bytes and hostile flags at once -----------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_command_survives_hostile_flags_on_hostile_bytes(family_bytes, hostile_path, data):
    # one mutated or tweaked family file and one drawn flag set for the same run
    hostile_path.write_bytes(data.draw(st.one_of(_mutations(family_bytes), _tweaks(family_bytes))))
    args = data.draw(_invocations([str(hostile_path)]).filter(
        lambda args: args[0] not in ("paper-family", "verify-paper")))
    start = time.perf_counter()
    result = CliRunner().invoke(main, args)
    assert time.perf_counter() - start < 5.0, args
    assert result.exit_code in (0, 1, 2), args
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output, args
    if result.exit_code == 2:
        assert result.stderr.startswith("error: "), args
        assert result.stderr.count("\n") == 1, args
