"""Command-line front end.

Exit codes: 0 success, 1 mathematical rejection (not-member), 2 usage or
validation error.  Output is deterministic: TSV rows, canonical vertex order,
no timestamps.
"""

import argparse
import os
import sys

from . import zoo
from .cones import counts, inequalities, member_antiinv, member_dw, member_inductive
from .errors import QuiverConesError
from .quiver import antisym_basis, euler_form
from .quiverfile import (
    format_vector,
    parse_dim_vector,
    parse_quiver_file,
    parse_weight,
    serialize_quiver,
)
from .redundancy import irredundant_core
from .schofield import ExtTable


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return parse_quiver_file(fh.read())


def _pick_involution(involutions, name):
    if name is None:
        if len(involutions) == 1:
            return involutions[0]
        if not involutions:
            raise QuiverConesError("the quiver file has no involution")
        raise QuiverConesError(
            "ambiguous involution; pass --involution " +
            "|".join(i.name for i in involutions)
        )
    for inv in involutions:
        if inv.name == name:
            return inv
    raise QuiverConesError(f"no involution named {name!r} in file")


def _basis(q, inv, args):
    reps = args.representatives.split(",") if args.representatives else None
    return antisym_basis(q, inv, representatives=reps)


def _weight(q, involutions, args):
    if args.sigma is not None:
        return parse_weight(q, args.sigma)
    if args.coords is not None:
        inv = _pick_involution(involutions, args.involution)
        basis = _basis(q, inv, args)
        return basis.from_coords(int(c) for c in args.coords.split(","))
    raise QuiverConesError("pass --sigma or --coords")


def _worker_cap():
    raw = os.environ.get("QUIVER_CONES_THREADS")
    if raw is None:
        return None
    cap = int(raw)
    if cap < 1:
        raise QuiverConesError("QUIVER_CONES_THREADS must be >= 1")
    return cap


def cmd_validate(args):
    q, involutions = _load(args.file)  # the parser validates the quiver and each involution
    print(f"ok {q.name} vertices={len(q.vertices)} arrows={len(q.arrows)} "
          f"involutions={len(involutions)}")
    return 0


def cmd_euler(args):
    q, _ = _load(args.file)
    print(euler_form(q, parse_dim_vector(q, args.a), parse_dim_vector(q, args.b)))
    return 0


def cmd_ext(args):
    q, _ = _load(args.file)
    t = ExtTable(q)
    print(t.ext(parse_dim_vector(q, args.a), parse_dim_vector(q, args.b)))
    return 0


def cmd_hom(args):
    q, _ = _load(args.file)
    t = ExtTable(q)
    print(t.hom(parse_dim_vector(q, args.a), parse_dim_vector(q, args.b)))
    return 0


def cmd_subdim(args):
    q, _ = _load(args.file)
    t = ExtTable(q)
    ok = t.is_generic_subdim(parse_dim_vector(q, args.beta), parse_dim_vector(q, args.alpha))
    print("subdim" if ok else "not-subdim")
    return 0


def cmd_disc(args):
    q, involutions = _load(args.file)
    t = ExtTable(q)
    s = _weight(q, involutions, args)
    print(t.disc(parse_dim_vector(q, args.alpha), s))
    return 0


def cmd_member(args):
    q, involutions = _load(args.file)
    t = ExtTable(q)
    a = parse_dim_vector(q, args.alpha)
    s = _weight(q, involutions, args)
    if args.method == "dw":
        res = member_dw(t, s, a)
    elif args.method == "inductive":
        res = member_inductive(t, s, a)
    else:
        inv = _pick_involution(involutions, args.involution)
        res = member_antiinv(t, s, a, inv)
    if res:
        print("member")
        return 0
    if res.witness is not None:
        print(f"not-member\twitness\t{format_vector(res.witness)}")
    else:
        print(f"not-member\t{res.reason}")
    return 1


def _system(args):
    if args.coords and args.method != "antiinv":
        raise QuiverConesError("--coords requires an antiinv system")
    q, involutions = _load(args.file)
    t = ExtTable(q)
    a = parse_dim_vector(q, args.alpha)
    inv = basis = None
    if args.method == "antiinv":
        inv = _pick_involution(involutions, args.involution)
        basis = _basis(q, inv, args)
    return inequalities(t, a, args.method, inv=inv, basis=basis)


def cmd_inequalities(args):
    _print_system(_system(args), coords=args.coords)
    return 0


def _print_system(system, coords):
    if coords:
        for row in sorted(system.restricted_rows(primitive=True)):
            if any(row):
                print("\t".join(str(c) for c in row))
    else:
        for b in system.normals:
            print("\t".join(str(v) for v in b.values))


def cmd_counts(args):
    q, involutions = _load(args.file)
    t = ExtTable(q)
    a = parse_dim_vector(q, args.alpha)
    invs = [_pick_involution(involutions, name) for name in args.involution or []]
    n1, n2, n3s = counts(t, a, invs)
    cells = [",".join(str(v) for v in a.values), str(n1), str(n2)]
    cells.extend(str(n3) for n3 in n3s)
    print("\t".join(cells))
    return 0


def cmd_reduce(args):
    _print_system(irredundant_core(_system(args)), coords=args.coords)
    return 0


def cmd_zoo(args):
    if args.family == "line":
        q, inv = zoo.make_line(args.n)
        invs = [inv]
    elif args.family == "kronecker":
        q, inv = zoo.make_kronecker(args.n)
        invs = [inv]
    elif args.family == "sun":
        q, invs = zoo.make_sun(args.k, args.n)
    else:
        q, inv = zoo.make_d5hat()
        invs = [inv]
    sys.stdout.write(serialize_quiver(q, invs))
    return 0


def _add_vec_opts(p, *names):
    for name in names:
        p.add_argument(f"--{name}", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
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
    for name, fn in (("euler", cmd_euler), ("ext", cmd_ext), ("hom", cmd_hom)):
        p = filecmd(name, fn)
        _add_vec_opts(p, "a", "b")
    p = filecmd("subdim", cmd_subdim)
    _add_vec_opts(p, "beta", "alpha")

    def weight_opts(p):
        p.add_argument("--sigma")
        p.add_argument("--coords")
        p.add_argument("--involution")
        p.add_argument("--representatives")

    p = filecmd("disc", cmd_disc)
    p.add_argument("--alpha", required=True)
    weight_opts(p)

    p = filecmd("member", cmd_member)
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=("dw", "inductive", "antiinv"), required=True)
    weight_opts(p)

    for name, fn in (("inequalities", cmd_inequalities), ("reduce", cmd_reduce)):
        p = filecmd(name, fn)
        p.add_argument("--alpha", required=True)
        p.add_argument("--method", choices=("dw", "inductive", "antiinv"), required=True)
        p.add_argument("--involution")
        p.add_argument("--representatives")
        p.add_argument("--coords", action="store_true",
                       help="emit restricted coefficient rows, sorted, zero rows dropped")

    p = filecmd("counts", cmd_counts)
    p.add_argument("--alpha", required=True)
    p.add_argument("--involution", action="append",
                   help="append an n3 column per named involution")

    p = sub.add_parser("zoo", help="print a family quiver as a quiver file")
    zsub = p.add_subparsers(dest="family", required=True)
    zp = zsub.add_parser("line")
    zp.add_argument("--n", type=int, required=True)
    zp = zsub.add_parser("kronecker")
    zp.add_argument("--n", type=int, required=True)
    zp = zsub.add_parser("sun")
    zp.add_argument("--k", type=int, required=True)
    zp.add_argument("--n", type=int, required=True)
    zsub.add_parser("d5hat")
    p.set_defaults(fn=cmd_zoo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _worker_cap()  # computations run single-threaded; the cap is validated only
        return args.fn(args)
    except (QuiverConesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
