import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import quiver_cones
from quiver_cones import (
    make_d5hat,
    make_kronecker,
    make_line,
    make_sun,
    parse_dim_vector,
    parse_quiver_file,
    parse_weight,
    serialize_quiver,
)
from quiver_cones.cli import main
from quiver_cones.errors import DuplicateIdError, QuiverFileSyntaxError
from quiver_cones.quiverfile import format_vector

GOOD_FILE = """\
# a tiny quiver
quiver A2
vertices 1 2
arrow a 1 2
involution tau
vmap 1 2
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def d5file(tmp_path):
    q, inv = make_d5hat()
    path = tmp_path / "d5hat.quiver"
    path.write_text(serialize_quiver(q, [inv]))
    return str(path)


@pytest.fixture()
def sunfile(tmp_path):
    q, invs = make_sun(3, 1)
    path = tmp_path / "sun.quiver"
    path.write_text(serialize_quiver(q, invs))
    return str(path)


def test_parse_basic():
    q, invs = parse_quiver_file(GOOD_FILE)
    assert q.name == "A2" and q.vertices == ("1", "2")
    assert len(invs) == 1 and invs[0].vertex("2") == "1"


def test_roundtrip_all_zoo():
    cases = [make_line(4), make_kronecker(3), make_d5hat()]
    for q, inv in cases:
        text = serialize_quiver(q, [inv])
        q2, invs2 = parse_quiver_file(text)
        assert serialize_quiver(q2, invs2) == text
    q, invs = make_sun(3, 2)
    text = serialize_quiver(q, invs)
    q2, invs2 = parse_quiver_file(text)
    assert serialize_quiver(q2, invs2) == text


def test_two_involution_blocks(sunfile):
    with open(sunfile) as fh:
        q, invs = parse_quiver_file(fh.read())
    assert [i.name for i in invs] == ["tau", "rho"]


def test_duplicate_involution_name_rejected(sunfile, tmp_path):
    with open(sunfile) as fh:
        text = fh.read().replace("involution rho", "involution tau")
    with pytest.raises(DuplicateIdError):
        parse_quiver_file(text)
    path = tmp_path / "dup.quiver"
    path.write_text(text)
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "") and "duplicate involution" in err


def test_public_names_resolve():
    import quiver_cones

    for name in quiver_cones.__all__:
        assert getattr(quiver_cones, name, None) is not None, name


def test_syntax_errors_carry_line_numbers():
    cases = [
        ("vertices x\n", 0),        # missing quiver line -> reported as line 0
        ("quiver q\nquiver r\n", 2),
        ("quiver q\narrow a x\n", 2),
        ("quiver q\nvmap x y\n", 2),
        ("quiver q\nbogus\n", 2),
    ]
    for text, line_no in cases:
        with pytest.raises(QuiverFileSyntaxError) as exc:
            parse_quiver_file(text)
        assert exc.value.line_no == line_no


def test_vector_literals():
    q, _ = parse_quiver_file(GOOD_FILE)
    a = parse_dim_vector(q, "1=2,2=3")
    assert a.values == (2, 3)
    assert parse_dim_vector(q, "2=5").values == (0, 5)
    assert parse_weight(q, "1=-1,2=1").values == (-1, 1)
    assert format_vector(a) == "1=2,2=3"
    assert format_vector(parse_dim_vector(q, "")) == "0"
    zero = parse_dim_vector(q, "0")  # the literal format_vector writes reads back
    assert zero.values == (0, 0) and parse_dim_vector(q, format_vector(zero)) == zero
    assert parse_weight(q, " 0 ").values == (0, 0)
    with pytest.raises(ValueError, match="bad assignment"):
        parse_dim_vector(q, "0,1=1")
    with pytest.raises(ValueError):
        parse_dim_vector(q, "zz=1")
    with pytest.raises(ValueError):
        parse_dim_vector(q, "1=1,1=2")


def test_cli_validate(d5file):
    code, out, _ = run_cli(["validate", d5file])
    assert code == 0
    assert out.strip() == "ok D5hat vertices=6 arrows=5 involutions=1"


def test_cli_validate_bad_file(tmp_path):
    path = tmp_path / "bad.quiver"
    path.write_text("quiver c\nvertices x y\narrow a x y\narrow b y x\n")
    code, _, err = run_cli(["validate", str(path)])
    assert code == 2 and "error:" in err


def test_cli_missing_file():
    code, _, err = run_cli(["validate", "/nonexistent.quiver"])
    assert code == 2 and "error:" in err


def test_cli_euler_ext_hom(d5file):
    code, out, _ = run_cli(["euler", d5file, "--a", "x1=1", "--b", "x3=1"])
    assert (code, out.strip()) == (0, "-1")
    code, out, _ = run_cli(["ext", d5file, "--a", "x1=1", "--b", "x3=1"])
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(["hom", d5file, "--a", "x1=1", "--b", "x3=1"])
    assert (code, out.strip()) == (0, "0")


def test_cli_subdim(d5file):
    code, out, _ = run_cli(
        ["subdim", d5file, "--beta", "x3=1,x4=1,x5=1,x6=1",
         "--alpha", "x1=1,x2=1,x3=1,x4=1,x5=1,x6=1"])
    assert (code, out.strip()) == (0, "subdim")
    code, out, _ = run_cli(
        ["subdim", d5file, "--beta", "x1=1", "--alpha", "x1=1,x3=1"])
    assert (code, out.strip()) == (0, "not-subdim")
    code, out, _ = run_cli(["subdim", d5file, "--beta", "0", "--alpha", "x1=1,x3=1"])
    assert (code, out.strip()) == (0, "subdim")


def test_cli_member_exit_codes(d5file):
    alpha = "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2"
    code, out, _ = run_cli(
        ["member", d5file, "--alpha", alpha, "--method", "antiinv",
         "--coords", "0,0,-1"])
    assert (code, out.strip()) == (0, "member")
    code, out, _ = run_cli(
        ["member", d5file, "--alpha", alpha, "--method", "antiinv",
         "--coords", "1,0,-1"])
    assert code == 1 and out.startswith("not-member\twitness\t")
    code, _, err = run_cli(
        ["member", d5file, "--alpha", alpha, "--method", "antiinv"])
    assert code == 2 and "error:" in err


def test_cli_member_sigma(d5file):
    code, out, _ = run_cli(
        ["member", d5file, "--alpha", "x1=1,x3=1", "--method", "dw",
         "--sigma", "x1=1,x3=-1"])
    assert (code, out.strip()) == (0, "member")
    code, out, _ = run_cli(
        ["member", d5file, "--alpha", "x1=1,x3=1", "--method", "inductive",
         "--sigma", "x1=-1,x3=1"])
    assert code == 1


def test_cli_counts_golden_row(d5file):
    code, out, _ = run_cli(
        ["counts", d5file, "--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2",
         "--involution", "tau"])
    assert code == 0
    assert out.strip() == "2,3,4,4,3,2\t244\t57\t10"


def test_cli_counts_two_involutions(sunfile):
    alpha = ",".join(f"{i}.1=1" for i in range(6))
    code, out, _ = run_cli(
        ["counts", sunfile, "--alpha", alpha,
         "--involution", "tau", "--involution", "rho"])
    assert code == 0
    cells = out.strip().split("\t")
    assert len(cells) == 5 and cells[1:3] == [str(int(cells[1])), str(int(cells[2]))]


def test_cli_inequalities_and_reduce_coords(d5file):
    alpha = "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2"
    base = ["--alpha", alpha, "--method", "antiinv",
            "--representatives", "x4,x5,x6", "--coords"]
    code, out, _ = run_cli(["inequalities", d5file] + base)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(set(lines))  # the printer relies on deduplicated systems
    rows = {tuple(int(c) for c in line.split("\t")) for line in lines}
    assert rows == {
        (0, 0, 1), (0, 1, 0), (0, 3, 2), (1, 0, 1), (1, 0, 2),
        (1, 1, 0), (2, 3, 0), (3, 2, 1), (4, 3, 2),
    }
    code, out, _ = run_cli(["reduce", d5file] + base)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(set(lines))
    rows = {tuple(int(c) for c in line.split("\t")) for line in lines}
    assert rows == {(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)}


def test_cli_repeated_orbit_in_representatives_exits_2(d5file):
    # x6 and x1 name one orbit: a fourth coordinate would repeat the third
    for command in ("inequalities", "reduce"):
        code, out, err = run_cli([command, d5file, "--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2",
                                  "--method", "antiinv", "--representatives", "x4,x5,x6,x1",
                                  "--coords"])
        assert (code, out) == (2, "")
        assert err == "error: representatives must cover each swapped orbit exactly once\n"


def test_cli_coords_rejected_before_any_lp(monkeypatch, d5file):
    import quiver_cones.cli as cli

    def no_lp(system):
        raise AssertionError("irredundant_core ran before the --coords check")

    monkeypatch.setattr(cli, "irredundant_core", no_lp)
    for command in ("inequalities", "reduce"):
        code, out, err = run_cli([command, d5file, "--alpha", "x1=1,x2=2,x3=3,x4=3,x5=2,x6=1",
                                  "--method", "dw", "--coords"])
        assert (code, out) == (2, "") and "--coords requires an antiinv system" in err


def test_cli_file_without_involution(tmp_path):
    q, _ = make_d5hat()
    path = tmp_path / "plain.quiver"
    path.write_text(serialize_quiver(q, []))
    code, out, err = run_cli(["member", str(path), "--alpha", "x1=1,x2=1,x3=1,x4=1,x5=1,x6=1",
                              "--method", "antiinv", "--sigma", "x1=1,x6=-1"])
    assert (code, out) == (2, "") and "the quiver file has no involution" in err


def test_cli_deterministic_output(d5file):
    argv = ["inequalities", d5file, "--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2",
            "--method", "antiinv", "--coords"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second and first[0] == 0


def test_cli_zoo_roundtrip(tmp_path):
    code, out, _ = run_cli(["zoo", "sun", "--k", "3", "--n", "1"])
    assert code == 0
    path = tmp_path / "sun.quiver"
    path.write_text(out)
    code, out2, _ = run_cli(["validate", str(path)])
    assert code == 0
    assert out2.strip() == "ok Sun6.1 vertices=6 arrows=6 involutions=2"


@pytest.mark.parametrize("argv, made", [
    (["line", "--n", "4"], make_line(4)),
    (["kronecker", "--n", "3"], make_kronecker(3)),
    (["sun", "--k", "3", "--n", "2"], make_sun(3, 2)),
    (["d5hat"], make_d5hat()),
], ids=["line", "kronecker", "sun", "d5hat"])
def test_cli_zoo_prints_the_library_quiver(argv, made):
    q, invs = made
    expected = serialize_quiver(q, invs if isinstance(invs, list) else [invs])
    assert run_cli(["zoo"] + argv) == (0, expected, "")


def test_cli_zoo_bad_parameter():
    code, _, err = run_cli(["zoo", "line", "--n", "0"])
    assert code == 2 and "error:" in err


def test_cli_thread_cap_env(monkeypatch, d5file):
    monkeypatch.setenv("QUIVER_CONES_THREADS", "2")
    code, out, _ = run_cli(["euler", d5file, "--a", "x1=1", "--b", "x1=1"])
    assert (code, out.strip()) == (0, "1")
    monkeypatch.setenv("QUIVER_CONES_THREADS", "0")
    code, _, err = run_cli(["euler", d5file, "--a", "x1=1", "--b", "x1=1"])
    assert code == 2 and "error:" in err


SMALL_ALPHA = "x1=1,x2=2,x3=3,x4=3,x5=2,x6=1"
EXAMPLE1_ALPHA = "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2"


def _rows(out):
    return [tuple(int(c) for c in line.split("\t")) for line in out.splitlines()]


@pytest.mark.parametrize("method, alpha, values, n", [
    ("dw", (1, 2, 3, 3, 2, 1), "generic_subdims", 59),
    ("inductive", (2, 3, 4, 4, 3, 2), "inductive_normals", 57),
], ids=["dw", "inductive"])
def test_cli_inequalities_ambient(d5file, d5hat_table, method, alpha, values, n):
    # n is n1 (dw) or n2 (inductive) of alpha in the D5-hat golden table
    literal = ",".join(f"x{i}={v}" for i, v in enumerate(alpha, start=1))
    code, out, _ = run_cli(["inequalities", d5file, "--alpha", literal, "--method", method])
    assert code == 0 and len(out.splitlines()) == n
    assert _rows(out) == [b.values for b in getattr(d5hat_table, values)(alpha)]


@pytest.mark.parametrize("method, alpha, expected", [
    ("dw", SMALL_ALPHA, [
        (0, 1, 1, 1, 1, 0), (0, 2, 2, 2, 2, 1), (0, 2, 2, 3, 2, 1), (0, 2, 3, 3, 2, 1),
        (1, 1, 2, 2, 1, 1), (1, 1, 2, 2, 2, 1), (1, 1, 2, 3, 2, 1), (1, 1, 3, 3, 2, 1)]),
    ("inductive", EXAMPLE1_ALPHA, [
        (1, 2, 2, 2, 2, 1), (1, 2, 3, 3, 2, 1), (1, 3, 3, 3, 3, 2), (1, 3, 3, 4, 3, 2),
        (2, 1, 2, 2, 3, 2), (2, 1, 2, 4, 3, 2), (2, 2, 3, 3, 2, 2)]),
    # 244 dw rows at the alpha of Example 1, one Farkas LP each
    ("dw", EXAMPLE1_ALPHA, [
        (1, 2, 2, 2, 2, 1), (1, 2, 3, 3, 2, 1), (1, 3, 3, 4, 3, 2), (1, 3, 4, 4, 3, 2),
        (2, 2, 3, 3, 2, 2), (2, 2, 3, 4, 3, 2), (2, 2, 4, 4, 3, 2)]),
], ids=["dw", "inductive", "dw-example1"])
def test_cli_reduce_ambient(d5file, method, alpha, expected):
    code, out, _ = run_cli(["reduce", d5file, "--alpha", alpha, "--method", method])
    assert code == 0 and out == "".join("\t".join(map(str, r)) + "\n" for r in expected)


def test_cli_disc(d5file):
    code, out, _ = run_cli(["disc", d5file, "--alpha", EXAMPLE1_ALPHA,
                            "--coords", "1,0,-1", "--involution", "tau"])
    assert (code, out) == (0, "2\n")


def test_cli_member_reports_nonzero_sigma_alpha(d5file):
    code, out, _ = run_cli(["member", d5file, "--method", "dw",
                            "--sigma", "x1=1,x3=1", "--alpha", "x1=1,x3=1"])
    assert (code, out) == (1, "not-member\tsigma(alpha) = 2 != 0\n")


def test_cli_involution_must_be_named_and_known(sunfile):
    argv = ["member", sunfile, "--method", "antiinv", "--coords", "1,0,-1",
            "--alpha", ",".join(f"{i}.1=2" for i in range(6))]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and "--involution tau|rho" in err
    code, out, err = run_cli(argv + ["--involution", "nope"])
    assert (code, out) == (2, "") and "no involution named 'nope'" in err


def test_cli_process_exit_codes(d5file):
    # the exit code main returns must reach the process, through sys.exit(main())
    src = os.path.dirname(os.path.dirname(os.path.abspath(quiver_cones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    member = ["member", d5file, "--alpha", EXAMPLE1_ALPHA, "--method", "antiinv", "--coords"]
    for argv, code in ((["validate", d5file], 0), (member + ["1,0,-1"], 1),
                       (["validate", d5file + ".missing"], 2)):
        done = subprocess.run([sys.executable, "-m", "quiver_cones.cli"] + argv, env=env,
                              capture_output=True, text=True)
        assert done.returncode == code, (argv, done.stderr)
