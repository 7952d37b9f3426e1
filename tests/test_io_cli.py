import argparse
import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import quiver_cones
from quiver_cones import (
    Involution,
    Quiver,
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
from quiver_cones.errors import DanglingEndpointError, DuplicateIdError, QuiverFileSyntaxError
from quiver_cones.quiverfile import format_vector

from goldens import D5HAT_TABLE
from oracle import random_involution_quiver

GOOD_FILE = """\
# a tiny quiver
quiver A2
vertices 1 2
arrow a 1 2
involution tau
vmap 1 2
"""

D5HAT_FILE = """\
quiver D5hat
vertices x1 x2 x3 x4 x5 x6
arrow a1 x1 x3
arrow a2 x2 x3
arrow a3 x3 x4
arrow a4 x4 x5
arrow a5 x4 x6
involution tau
vmap x1 x6
vmap x2 x5
vmap x3 x4
amap a1 a5
amap a2 a4
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
    # the empty quiver writes no vertices line, which the parser would refuse
    empty = Quiver("E", [], [])
    assert serialize_quiver(empty) == "quiver E\n"
    assert parse_quiver_file(serialize_quiver(empty)) == (empty, [])


def test_serialize_checks_each_involution(d5hat, sun31):
    # written unbound, the first is an empty block that parse refuses; the second,
    # which would drop its y <-> z pair and parse back as another involution, cannot be made
    (q, tau), (_, (sun_tau, _)) = d5hat, sun31
    with pytest.raises(ValueError, match="Involution bound to a different quiver"):
        serialize_quiver(q, [tau, sun_tau])
    with pytest.raises(DanglingEndpointError, match="vmap mentions unknown vertex"):
        Involution.from_pairs(q, "tau", list(tau.vmap.items()) + [("y", "z")], tau.amap.items())
    assert serialize_quiver(q, [tau]) == D5HAT_FILE


@pytest.mark.parametrize("seed", range(12))
def test_random_involution_quivers_round_trip(seed):
    rng = random.Random(seed)  # the quivers of the random cone-equality test
    q, tau = random_involution_quiver(rng, rng.randint(4, 9))
    assert parse_quiver_file(serialize_quiver(q, [tau])) == (q, [tau])


@pytest.mark.parametrize("text, bad", [
    ("quiver q\nvertices a,b c=d\n", "vertex id 'a,b'"),
    ("quiver q\nvertices a b\narrow a=b a b\n", "arrow id 'a=b'"),
    ("quiver q,1\nvertices a\n", "quiver name 'q,1'"),
    ("quiver q\nvertices a b\ninvolution t=u\nvmap a b\n", "involution name 't=u'"),
], ids=["vertex", "arrow", "quiver", "involution"])
def test_parse_refuses_ids_no_literal_can_name(tmp_path, text, bad):
    # --alpha a,b=1 once read 'a' as a bad assignment, and format_vector wrote a,b=1,c=d=2
    with pytest.raises(ValueError, match=re.escape(bad)):
        parse_quiver_file(text)
    path = tmp_path / "bad.quiver"
    path.write_text(text)
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "") and bad in err


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
        ("vertices x\n", 0, "missing quiver line"),  # reported as line 0
        ("quiver q\nquiver r\n", 2, "duplicate quiver line"),
        ("quiver q\narrow a x\n", 2, "expected: arrow <id> <tail> <head>"),
        ("quiver q\nvmap x y\n", 2, "vmap outside an involution block"),
        ("quiver q\nbogus\n", 2, "unknown directive 'bogus'"),
        ("quiver\n", 1, "expected: quiver <name>"),
        ("quiver q r\n", 1, "expected: quiver <name>"),
        ("quiver q\nvertices\n", 2, "expected: vertices <id>..."),
        ("quiver q\ninvolution\n", 2, "expected: involution <name>"),
        ("quiver q\nvertices x\ninvolution t\nvmap x\n", 4, "expected: vmap <x> <y>"),
        ("quiver q\nvertices x\ninvolution t\namap a b c\n", 4, "expected: amap <x> <y>"),
        # the checks run in this order: directive, block, arity, duplicate
        ("quiver q\namap a\n", 2, "amap outside an involution block"),
        ("quiver q\nquiver\n", 2, "expected: quiver <name>"),
        ("quiver q\ninvolution t\ninvolution t u\n", 3, "expected: involution <name>"),
        ("quiver q\nbogus\nquiver r\n", 2, "unknown directive 'bogus'"),
    ]
    for text, line_no, message in cases:
        with pytest.raises(QuiverFileSyntaxError) as exc:
            parse_quiver_file(text)
        assert (exc.value.line_no, str(exc.value)) == (line_no, f"line {line_no}: {message}")


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
    with pytest.raises(DanglingEndpointError, match=re.escape("unknown vertices ['zz']")):
        parse_dim_vector(q, "zz=1")
    with pytest.raises(ValueError):
        parse_dim_vector(q, "1=1,1=2")


def test_cli_unknown_vertex_in_a_literal_exits_2(d5file):
    # from_dict is the one check of an unknown vertex, in a literal too
    assert run_cli(["counts", d5file, "--alpha", "x9=1"]) == (2, "", "error: unknown vertices ['x9']\n")


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


@pytest.mark.parametrize("command", [
    ["disc"], ["member", "--method", "dw"], ["member", "--method", "inductive"],
    ["member", "--method", "antiinv"],
], ids=["disc", "member-dw", "member-inductive", "member-antiinv"])
def test_cli_weight_takes_exactly_one_of_sigma_and_coords(d5file, command):
    argv = command[:1] + [d5file, "--alpha", EXAMPLE1_ALPHA] + command[1:]
    both = ["--sigma", "x1=1,x6=-1", "--coords", "0,0,-1"]
    code, out, err = run_cli(argv + both)
    assert (code, out) == (2, "") and "pass --sigma or --coords, not both" in err
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and "pass --sigma or --coords" in err
    for one in (both[:2], both[2:]):
        code, _, err = run_cli(argv + one)
        assert code in (0, 1) and err == ""


SIGMA = "x1=1,x6=-1"  # anti-symmetric under tau, with sigma(alpha) = 0 at Example 1


@pytest.mark.parametrize("command, unread", [
    (["member", "--method", "dw", "--sigma", SIGMA, "--representatives", "bogus"],
     "--representatives"),
    (["member", "--method", "dw", "--sigma", SIGMA, "--involution", "nope"], "--involution"),
    (["member", "--method", "antiinv", "--sigma", SIGMA, "--representatives", "bogus"],
     "--representatives"),
    (["disc", "--sigma", SIGMA, "--involution", "nope"], "--involution"),
    (["inequalities", "--method", "dw", "--representatives", "bogus"], "--representatives"),
    (["inequalities", "--method", "inductive", "--involution", "nope"], "--involution"),
    (["reduce", "--method", "inductive", "--involution", "nope", "--representatives", "bogus"],
     "--involution"),
], ids=["member-dw-reps", "member-dw-involution", "member-antiinv-sigma-reps", "disc-sigma-involution",
        "inequalities-dw-reps", "inequalities-inductive-involution", "reduce-inductive-both"])
def test_cli_refuses_an_orbit_option_nothing_reads(monkeypatch, d5file, command, unread):
    # tau is read only by antiinv or with an orbit basis, which only --coords weights and
    # antiinv systems read, and so --representatives; each of these once exited 0 ignoring it
    build, builds = quiver_cones.ExtTable._build, []
    monkeypatch.setattr(quiver_cones.ExtTable, "_build",
                        lambda self, root: builds.append(root) or build(self, root))
    argv = command[:1] + [d5file, "--alpha", EXAMPLE1_ALPHA] + command[1:]
    code, out, err = run_cli(argv)
    assert (code, out, builds) == (2, "", [])
    assert err == f"error: {unread} is not read by {command[0]} with these options\n"


@pytest.mark.parametrize("command", [
    ["member", "--method", "antiinv", "--sigma", SIGMA, "--involution", "tau"],
    ["member", "--method", "dw", "--coords", "0,0,-1", "--involution", "tau",
     "--representatives", "x4,x5,x6"],
    ["disc", "--coords", "0,0,-1", "--representatives", "x4,x5,x6"],
    ["inequalities", "--method", "antiinv", "--involution", "tau", "--representatives", "x4,x5,x6"],
], ids=["member-antiinv-sigma", "member-dw-coords", "disc-coords", "inequalities-antiinv"])
def test_cli_reads_each_orbit_option_it_is_given(d5file, command):
    argv = command[:1] + [d5file, "--alpha", EXAMPLE1_ALPHA] + command[1:]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("command", [
    ["inequalities", "--method", "antiinv"],
    ["reduce", "--method", "antiinv", "--coords"],
    ["member", "--method", "antiinv", "--coords", "0,0,-1"],
    ["disc", "--coords", "0,0,-1"],
], ids=["inequalities", "reduce", "member", "disc"])
def test_cli_empty_representatives_exit_2(d5file, command):
    # an empty list once fell back to the default representatives and answered
    argv = command[:1] + [d5file, "--alpha", EXAMPLE1_ALPHA] + command[1:]
    code, out, err = run_cli(argv + ["--representatives", ""])
    assert (code, out, err) == (2, "", "error: '' is not in a swapped orbit\n")


@pytest.mark.parametrize("quiver, argv, checks", [
    ("d5file", ["counts", "--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2", "--involution", "tau"], 1),
    ("d5file", ["member", "--method", "antiinv", "--coords", "0,0,-1"], 1),
    ("d5file", ["inequalities", "--method", "antiinv"], 1),
    ("d5file", ["reduce", "--method", "antiinv"], 1),
    ("sunfile", ["counts", "--alpha", "0.1=2,1.1=2,2.1=2,3.1=2,4.1=2,5.1=2",
                 "--involution", "tau", "--involution", "rho"], 2),
], ids=["counts", "member", "inequalities", "reduce", "sun-counts"])
def test_cli_checks_each_involution_once(monkeypatch, request, quiver, argv, checks):
    # each involution is checked when the parser makes it, bound to the parsed quiver;
    # a basis, a table read or a query once checked it again (2, 3, 3, 3 and 4 checks)
    path = request.getfixturevalue(quiver)
    if "--alpha" not in argv:
        argv = argv + ["--alpha", EXAMPLE1_ALPHA]
    check, made = Involution.__post_init__, []
    monkeypatch.setattr(Involution, "__post_init__", lambda inv: made.append(inv) or check(inv))
    code, out, _ = run_cli(argv[:1] + [path] + argv[1:])
    assert code == 0 and out
    assert len(made) == checks and len({id(inv.quiver) for inv in made}) == 1


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


@pytest.mark.parametrize("order", ["golden", "reversed"])
def test_cli_counts_many_alphas_match_single_calls(d5file, order):
    # one table serves every line; roots that are keys of an earlier root are
    # read from the table, with no build of their own
    alphas = [",".join(f"x{i}={v}" for i, v in enumerate(row[0], 1)) for row in D5HAT_TABLE]
    alphas += ["x1=1,x6=1", "x1=3,x6=3", alphas[0]]  # thin roots and a repeated one
    if order == "reversed":
        alphas.reverse()
    single = ""
    for alpha in alphas:
        code, out, err = run_cli(["counts", d5file, "--alpha", alpha, "--involution", "tau"])
        assert (code, err) == (0, "")
        single += out
    argv = ["counts", d5file, "--involution", "tau"]
    for alpha in alphas:
        argv += ["--alpha", alpha]
    assert run_cli(argv) == (0, single, "")
    golden = {f"{','.join(map(str, a))}\t{n1}\t{n2}\t{n3}" for a, n1, n2, n3 in D5HAT_TABLE}
    assert golden <= set(single.splitlines())


def test_cli_counts_many_alphas_two_involutions(sunfile):
    alphas = ["0.1=3,1.1=3,2.1=3,3.1=3,4.1=3,5.1=3", "0.1=2,1.1=2,2.1=2,3.1=2,4.1=2,5.1=2"]
    argv = ["counts", sunfile, "--involution", "tau", "--involution", "rho"]
    code, out, _ = run_cli(argv + ["--alpha", alphas[0], "--alpha", alphas[1]])
    assert (code, out) == (0, "3,3,3,3,3,3\t571\t20\t10\t12\n2,2,2,2,2,2\t129\t19\t10\t12\n")


def test_cli_counts_checks_every_alpha_before_printing(monkeypatch, d5file):
    code, out, err = run_cli(["counts", d5file, "--alpha", "x1=1", "--alpha", "x9=1"])
    assert (code, out) == (2, "") and "x9" in err
    # an alpha that fails once counting has begun prints no earlier line either
    argv = ["counts", d5file, "--alpha", "x1=1,x6=1", "--involution", "tau"]
    code, out, err = run_cli(argv + ["--alpha", "x1=1,x2=2"])
    assert (code, out, err) == (2, "", "error: (1, 2, 0, 0, 0, 0) is not tau-symmetric\n")
    monkeypatch.setattr(quiver_cones.schofield, "_MAX_CANDIDATES", 100)
    code, out, err = run_cli(argv + ["--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2"])
    assert (code, out) == (2, "") and "above the budget" in err


def test_cli_thin_multiple_exits_2_on_the_candidate_budget(d5file):
    # 10000 e_1: its box of 10001 points fits, but the sum of 10000 copies of S_e1 = {0, e_1}
    # forms about 10**8 pairs and the build marks about 5 * 10**7 candidates, both past 2**24
    code, out, err = run_cli(["counts", d5file, "--alpha", "x1=10000"])
    assert (code, out) == (2, "") and "marks over" in err


def test_cli_sum_of_copies_answers_past_the_box_budget(d5file):
    # (10)^6 = 10 (1)^6 is a sum of copies of S_(1)^6, which allocates nothing box-sized, so it
    # answers with 11**6 > 2**20 box points; the sum for (20)^6 passes its pair budget, and
    # the build that decides it instead refuses its box
    argv = ["counts", d5file, "--involution", "tau", "--alpha"]
    ten, twenty = (",".join(f"x{i}={k}" for i in range(1, 7)) for k in (10, 20))
    assert run_cli(argv + [ten]) == (0, "10,10,10,10,10,10\t21021\t9\t5\n", "")
    code, out, err = run_cli(argv + [twenty])
    assert (code, out) == (2, "") and "above the budget" in err and "box of" in err


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


@pytest.mark.parametrize("method", ["dw", "inductive"])
def test_cli_reduce_checks_ambient_dimension_before_building(monkeypatch, tmp_path, method):
    # the exact-LP guard counts the support of alpha: (1,2)x6 is supported on all
    # 12 vertices of Sun(6,2), ambient dimension 11 > 8, so reduce exits 2 with no table build
    q, invs = make_sun(3, 2)
    path = tmp_path / "sun62.quiver"
    path.write_text(serialize_quiver(q, invs))
    builds = []

    def spy(self, root):
        builds.append(root)
        raise AssertionError("the table was built before the ambient guard")

    monkeypatch.setattr(quiver_cones.ExtTable, "_build", spy)
    alpha = ",".join(f"{v}={x}" for v, x in zip(q.vertices, (1, 2) * 6))
    code, out, err = run_cli(["reduce", str(path), "--alpha", alpha, "--method", method])
    assert (code, out, builds) == (2, "", [])
    assert err == "error: ambient dimension 11 exceeds the exact-LP guard (8)\n"


@pytest.mark.parametrize("method", ["dw", "inductive"])
def test_cli_reduce_on_a_small_support_of_a_wide_quiver(tmp_path, method):
    # alpha = 0.2+1.2+2.2 on Sun(6,2): LPs of dimension 2, though the quiver has 12 vertices;
    # on 0.2 -> 1.2 <- 2.2 at (1,1,1), sigma(1.2) = sigma(0.2+1.2) + sigma(1.2+2.2) - sigma(alpha)
    q, invs = make_sun(3, 2)
    path = tmp_path / "sun62.quiver"
    path.write_text(serialize_quiver(q, invs))
    code, out, err = run_cli(["reduce", str(path), "--alpha", "0.2=1,1.2=1,2.2=1",
                              "--method", method])
    assert (code, err) == (0, "")
    assert out == "0\t0\t0\t1\t0\t1\t0\t0\t0\t0\t0\t0\n0\t1\t0\t1\t0\t0\t0\t0\t0\t0\t0\t0\n"


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
    for bad in ("0", "abc"):  # "abc" once printed int()'s message, which names no variable
        monkeypatch.setenv("QUIVER_CONES_THREADS", bad)
        code, out, err = run_cli(["euler", d5file, "--a", "x1=1", "--b", "x1=1"])
        assert (code, out, err) == (2, "", "error: QUIVER_CONES_THREADS must be >= 1\n")


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


SUN_ALPHA = ",".join(f"{i}.1={v}" for i, v in enumerate((3, 2, 4, 3, 2, 4)))
SUN_TWOS = ",".join(f"{i}.1=2" for i in range(6))


@pytest.mark.parametrize("quiver, argv, expected", [
    ("d5file", ["--alpha", SMALL_ALPHA, "--method", "dw"], [
        (0, 1, 1, 1, 1, 0), (0, 2, 2, 2, 2, 1), (0, 2, 2, 3, 2, 1), (0, 2, 3, 3, 2, 1),
        (1, 1, 2, 2, 1, 1), (1, 1, 2, 2, 2, 1), (1, 1, 2, 3, 2, 1), (1, 1, 3, 3, 2, 1)]),
    ("d5file", ["--alpha", EXAMPLE1_ALPHA, "--method", "inductive"], [
        (1, 2, 2, 2, 2, 1), (1, 2, 3, 3, 2, 1), (1, 3, 3, 3, 3, 2), (1, 3, 3, 4, 3, 2),
        (2, 1, 2, 2, 3, 2), (2, 1, 2, 4, 3, 2), (2, 2, 3, 3, 2, 2)]),
    # 244 dw rows at the alpha of Example 1, one Farkas LP each
    ("d5file", ["--alpha", EXAMPLE1_ALPHA, "--method", "dw"], [
        (1, 2, 2, 2, 2, 1), (1, 2, 3, 3, 2, 1), (1, 3, 3, 4, 3, 2), (1, 3, 4, 4, 3, 2),
        (2, 2, 3, 3, 2, 2), (2, 2, 3, 4, 3, 2), (2, 2, 4, 4, 3, 2)]),
    # Sun(6,1): 112 inductive rows; dw here (924 rows) takes seconds and is left out
    ("sunfile", ["--alpha", SUN_ALPHA, "--method", "inductive"], [
        (1, 2, 4, 3, 2, 2), (2, 1, 3, 2, 1, 3), (2, 1, 3, 3, 2, 3), (3, 2, 3, 2, 2, 4),
        (3, 2, 4, 3, 0, 4), (3, 2, 4, 3, 1, 3)]),
    ("sunfile", ["--alpha", SUN_ALPHA, "--method", "antiinv", "--involution", "rho"], [
        (0, 1, 3, 2, 0, 0), (1, 0, 1, 1, 1, 2), (2, 1, 1, 0, 0, 2), (3, 2, 1, 0, 0, 3)]),
    ("sunfile", ["--alpha", SUN_ALPHA, "--method", "antiinv", "--involution", "rho", "--coords"],
     [(-3, -2, 2), (-2, -1, 1), (0, 1, 1), (2, -1, -3)]),
    ("sunfile", ["--alpha", SUN_TWOS, "--method", "dw"], [
        (1, 1, 1, 1, 1, 2), (1, 1, 1, 2, 1, 1), (1, 1, 1, 2, 2, 2), (1, 2, 1, 1, 1, 1),
        (1, 2, 2, 2, 1, 1), (1, 2, 2, 2, 2, 2), (2, 2, 1, 1, 1, 2), (2, 2, 1, 2, 2, 2),
        (2, 2, 2, 2, 1, 2)]),
    ("sunfile", ["--alpha", SUN_TWOS, "--method", "inductive"], [
        (0, 0, 0, 0, 0, 2), (0, 0, 0, 2, 0, 0), (0, 0, 0, 2, 2, 2), (0, 2, 0, 0, 0, 0),
        (0, 2, 2, 2, 0, 0), (0, 2, 2, 2, 2, 2), (2, 2, 0, 0, 0, 2), (2, 2, 0, 2, 2, 2),
        (2, 2, 2, 2, 0, 2)]),
    ("sunfile", ["--alpha", SUN_TWOS, "--method", "antiinv", "--involution", "tau", "--coords"],
     [(0, -1, 0), (0, 0, 1), (1, -1, -1), (1, 0, 0)]),
    ("sunfile", ["--alpha", SUN_TWOS, "--method", "antiinv", "--involution", "rho", "--coords"],
     [(-1, -1, 1), (1, -1, -1), (1, 1, 1)]),
], ids=["dw", "inductive", "dw-example1", "sun-inductive", "sun-antiinv-rho",
        "sun-antiinv-rho-coords", "sun-twos-dw", "sun-twos-inductive",
        "sun-twos-antiinv-tau-coords", "sun-twos-antiinv-rho-coords"])
def test_cli_reduce_ambient(request, quiver, argv, expected):
    code, out, _ = run_cli(["reduce", request.getfixturevalue(quiver), *argv])
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
                       (["validate", d5file + ".missing"], 2), (["--help"], 0),
                       (["member", d5file, "--method", "bogus"], 2)):
        done = subprocess.run([sys.executable, "-m", "quiver_cones.cli"] + argv, env=env,
                              capture_output=True, text=True)
        assert done.returncode == code, (argv, done.stderr)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_cli_exits_141_quietly_when_its_reader_closed_stdout(d5file, unbuffered):
    # as `| head` does; a missing quiver file is still a validation error
    src = os.path.dirname(os.path.dirname(os.path.abspath(quiver_cones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    missing = d5file + ".missing"
    calls = [(["inequalities", d5file, "--alpha", EXAMPLE1_ALPHA, "--method", "dw"], 141, ""),
             (["validate", d5file], 141, ""),
             (["--help"], 141, ""),
             (["counts", "--help"], 141, ""),
             (["validate", missing], 2, f"error: [Errno 2] No such file or directory: {missing!r}\n")]
    for argv, code, err in calls:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "quiver_cones.cli"] + argv, env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, err), argv


COMMANDS = ["validate", "euler", "ext", "hom", "subdim", "disc", "member", "inequalities", "reduce",
            "counts", "zoo"]


@pytest.mark.parametrize("argv", [[]] + [[c] for c in COMMANDS] +
                         [["zoo", f] for f in ("line", "kronecker", "sun", "d5hat")],
                         ids=lambda argv: " ".join(argv) or "top")
def test_cli_help_returns_0_with_its_usage_on_stdout(argv):
    code, out, err = run_cli(argv + ["--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: {' '.join(['quiver-cones'] + argv)} ")


def test_cli_usage_error_returns_2():
    # argparse's exit once left main as SystemExit
    code, out, err = run_cli([])
    assert (code, out) == (2, "")
    assert err.endswith("quiver-cones: error: the following arguments are required: command\n")


def test_cli_makes_no_parser_per_call(monkeypatch, d5file):
    # the parser is built once, on import; main once built 16 parsers a call
    init, made = argparse.ArgumentParser.__init__, []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: made.append(self) or init(self, *a, **kw))
    for argv in (["validate", d5file], ["validate", d5file], ["--help"], []):
        run_cli(argv)
    assert made == []


def test_cli_commands_leave_numpy_ma_unimported(d5file):
    # numpy imports numpy.ma lazily (np.unique does, for one); the import costs about
    # 1 MiB of peak RSS, a few percent of a small run's
    src = os.path.dirname(os.path.dirname(os.path.abspath(quiver_cones.__file__)))
    calls = [
        ["counts", d5file, "--alpha", EXAMPLE1_ALPHA, "--involution", "tau"],
        ["reduce", d5file, "--alpha", SMALL_ALPHA, "--method", "dw"],
        ["reduce", d5file, "--alpha", EXAMPLE1_ALPHA, "--method", "antiinv", "--involution", "tau",
         "--coords"],
    ] + [["member", d5file, "--alpha", EXAMPLE1_ALPHA, "--method", method, "--involution", "tau",
          "--coords", "1,0,-1"] for method in ("dw", "inductive", "antiinv")]
    script = ("import sys\nfrom quiver_cones.cli import main\n"
              f"codes = [main(argv) for argv in {calls!r}]\n"
              "print(codes, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 1, 1, 1] False"
