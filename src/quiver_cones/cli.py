"""Command-line front end.

Exit codes: 0 success, 1 mathematical rejection (not-member), 2 usage or
validation error, 141 stdout closed by its reader.  Output is deterministic:
TSV rows, canonical vertex order, no timestamps.
"""

import argparse
import os
import sys

from . import zoo
from .cones import counts, inequalities, member_antiinv, member_dw, member_inductive
from .errors import QuiverConesError
from .quiver import antisym_basis, euler_form
from .quiverfile import format_vector, parse_dim_vector, parse_quiver_file, parse_weight
from .quiverfile import serialize_quiver
from .redundancy import check_ambient_dim, irredundant_core
from .schofield import ExtTable


def _pick_involution(involutions, name):
    if name is None:
        if len(involutions) == 1:
            return involutions[0]
        if not involutions:
            raise QuiverConesError("the quiver file has no involution")
        raise QuiverConesError("ambiguous involution; pass --involution " +
                               "|".join(i.name for i in involutions))
    for inv in involutions:
        if inv.name == name:
            return inv
    raise QuiverConesError(f"no involution named {name!r} in file")


def _orbit_options(involutions, args, reads_basis, reads_tau=False):
    """(tau, representatives) of a command that reads an orbit basis, and so tau,
    or tau alone; an --involution or --representatives that nothing reads exits 2."""
    reads_tau = reads_tau or reads_basis
    for name, read in (("involution", reads_tau), ("representatives", reads_basis)):
        if getattr(args, name) is not None and not read:
            raise QuiverConesError(f"--{name} is not read by {args.command} with these options")
    reps = args.representatives.split(",") if args.representatives is not None else None
    return (_pick_involution(involutions, args.involution) if reads_tau else None), reps


def _weight(q, involutions, args, reads_tau=False):
    """(sigma, tau): the weight of --sigma or --coords, and tau if reads_tau or --coords."""
    if (args.sigma is None) == (args.coords is None):
        raise QuiverConesError("pass --sigma or --coords, not both")
    inv, reps = _orbit_options(involutions, args, args.coords is not None, reads_tau)
    if args.sigma is not None:
        return parse_weight(q, args.sigma), inv
    return antisym_basis(q, inv, reps).from_coords(int(c) for c in args.coords.split(",")), inv


def cmd_validate(t, involutions, args):
    # the parser has validated the quiver and each involution
    q = t.quiver
    print(f"ok {q.name} vertices={len(q.vertices)} arrows={len(q.arrows)} "
          f"involutions={len(involutions)}")
    return 0


def cmd_pair(t, involutions, args):
    """euler, ext, hom, subdim: one operation on two dimension vectors."""
    x, y = (parse_dim_vector(t.quiver, getattr(args, name)) for name in args.vectors)
    print(args.op(t, x, y))
    return 0


def cmd_disc(t, involutions, args):
    s, _ = _weight(t.quiver, involutions, args)
    print(t.disc(parse_dim_vector(t.quiver, args.alpha), s))
    return 0


def cmd_member(t, involutions, args):
    a = parse_dim_vector(t.quiver, args.alpha)
    s, inv = _weight(t.quiver, involutions, args, args.method == "antiinv")
    if args.method == "antiinv":
        res = member_antiinv(t, s, a, inv)
    else:
        res = (member_dw if args.method == "dw" else member_inductive)(t, s, a)
    if res:
        print("member")
        return 0
    if res.witness is not None:
        print(f"not-member\twitness\t{format_vector(res.witness)}")
    else:
        print(f"not-member\t{res.reason}")
    return 1


def cmd_system(t, involutions, args):
    """inequalities and reduce: the system of one method, reduced for reduce."""
    if args.coords and args.method != "antiinv":
        raise QuiverConesError("--coords requires an antiinv system")
    inv, reps = _orbit_options(involutions, args, args.method == "antiinv")
    a = parse_dim_vector(t.quiver, args.alpha)
    if args.command == "reduce" and args.method != "antiinv":
        check_ambient_dim(a.values)  # before the table is built
    system = inequalities(t, a, args.method, inv=inv, representatives=reps)
    if args.command == "reduce":
        system = irredundant_core(system)
    if args.coords:
        rows = [row for row in sorted(system.restricted_rows()) if any(row)]
    else:
        rows = [b.values for b in system.normals]
    for row in rows:
        print("\t".join(str(c) for c in row))
    return 0


def cmd_counts(t, involutions, args):
    """One TSV line per --alpha, in the order given, all read from one table;
    none is printed before every line is computed, so an error prints none."""
    alphas = [parse_dim_vector(t.quiver, alpha) for alpha in args.alpha]
    invs = [_pick_involution(involutions, name) for name in args.involution or []]
    lines = []
    for a in alphas:
        n1, n2, n3s = counts(t, a, invs)
        cells = [",".join(str(v) for v in a.values), str(n1), str(n2)] + [str(n3) for n3 in n3s]
        lines.append("\t".join(cells))
    print("\n".join(lines))
    return 0


def cmd_zoo(args):
    q, invs = args.make(*(getattr(args, name) for name in args.params))
    sys.stdout.write(serialize_quiver(q, invs if isinstance(invs, list) else [invs]))
    return 0


class _Parser(argparse.ArgumentParser):
    """print_help writes straight to the stream: ArgumentParser's own drops a
    failed write, so --help into a closed stdout would exit 0, not 141."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _build_parser():
    parser = _Parser(
        prog="quiver-cones",
        description="Semi-invariant weight cones of acyclic quivers, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def filecmd(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("file", help="quiver file")
        p.set_defaults(fn=fn)
        return p

    filecmd("validate", cmd_validate, help="validate a quiver file")
    pairs = (
        ("euler", lambda t, a, b: euler_form(t.quiver, a, b), "a", "b"),
        ("ext", lambda t, a, b: t.ext(a, b), "a", "b"),
        ("hom", lambda t, a, b: t.hom(a, b), "a", "b"),
        ("subdim", lambda t, b, a: "subdim" if t.is_generic_subdim(b, a) else "not-subdim",
         "beta", "alpha"),
    )
    for name, op, x, y in pairs:
        p = filecmd(name, cmd_pair)
        p.add_argument(f"--{x}", required=True)
        p.add_argument(f"--{y}", required=True)
        p.set_defaults(op=op, vectors=(x, y))

    def weight_opts(p):
        for opt in ("--sigma", "--coords", "--involution", "--representatives"):
            p.add_argument(opt)

    p = filecmd("disc", cmd_disc)
    p.add_argument("--alpha", required=True)
    weight_opts(p)

    p = filecmd("member", cmd_member)
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=("dw", "inductive", "antiinv"), required=True)
    weight_opts(p)

    for name in ("inequalities", "reduce"):
        p = filecmd(name, cmd_system)
        p.add_argument("--alpha", required=True)
        p.add_argument("--method", choices=("dw", "inductive", "antiinv"), required=True)
        p.add_argument("--involution")
        p.add_argument("--representatives")
        p.add_argument("--coords", action="store_true",
                       help="emit restricted coefficient rows, sorted, zero rows dropped")

    p = filecmd("counts", cmd_counts)
    p.add_argument("--alpha", action="append", required=True,
                   help="one output line per --alpha, in the order given")
    p.add_argument("--involution", action="append",
                   help="append an n3 column per named involution")

    p = sub.add_parser("zoo", help="print a family quiver as a quiver file")
    zsub = p.add_subparsers(dest="family", required=True)
    for name, make, params in (("line", zoo.make_line, ("n",)),
                               ("kronecker", zoo.make_kronecker, ("n",)),
                               ("sun", zoo.make_sun, ("k", "n")), ("d5hat", zoo.make_d5hat, ())):
        zp = zsub.add_parser(name)
        for param in params:
            zp.add_argument(f"--{param}", type=int, required=True)
        zp.set_defaults(make=make, params=params)
    return parser


PARSER = _build_parser()  # argparse parsers can be reused: one per process


def main(argv=None):
    try:
        try:
            args = PARSER.parse_args(argv)
        except SystemExit as exc:  # argparse has printed --help or a usage error
            code = exc.code
        else:
            threads = os.environ.get("QUIVER_CONES_THREADS", "1")  # validated only: one thread runs
            if not threads.strip().isdecimal() or int(threads) < 1:
                raise QuiverConesError("QUIVER_CONES_THREADS must be >= 1")
            if args.command == "zoo":
                code = cmd_zoo(args)
            else:
                with open(args.file, encoding="utf-8") as fh:
                    q, involutions = parse_quiver_file(fh.read())
                code = args.fn(ExtTable(q), involutions, args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (QuiverConesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
