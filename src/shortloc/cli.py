"""Command-line interface.

JSON is the canonical machine format (deterministic: sorted keys, scalars
as strings); text tables are for humans; CSV is available for sequences.
Exit codes: 0 success, 1 check failed, 2 usage error, 3 resource cap.
The environment variable SHORTLOC_CAP overrides the dimension cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from . import homology, serialize
from .algebra import ShortAlgebra
from .errors import BadParams, ResourceCapExceeded, ShortlocError
from .explorer import classify_complex, mho_path, omega_path
from .homology import (a_dual, betti, ext_dim, is_gp, is_inf_torsionfree, is_reflexive,
                       is_semi_gp, is_torsionless, mho_step, syzygy, transpose)
from .modules import (AModule, cyclic_submodule, dim_vector, is_solid,
                      left_regular_module, m_alpha, radical_module, random_module,
                      simple_module)
from .numerics import b_sequence, check_closed_form, is_aligned
from .presets import preset, preset_names

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _default_cap() -> int:
    env = os.environ.get("SHORTLOC_CAP")
    if not env:
        return homology.DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise BadParams(f"SHORTLOC_CAP must be an integer, got {env!r}")
    if cap < 1:
        raise BadParams(f"SHORTLOC_CAP must be at least 1, got {cap}")
    return cap


def parse_algebra_source(src: str, cap: int) -> ShortAlgebra:
    """A preset spec ("name" or "name:k=v,k=v") or a JSON file path.

    Its size, a preset's g^2 or a file's e^2, is checked against ``cap`` before
    it is built; a repeated key is refused.
    """
    if src.endswith(".json") or os.path.exists(src):
        return serialize.load_algebra(src, cap)
    name, _, params = src.partition(":")
    kwargs = {}
    if params:
        for item in params.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in kwargs:
                raise BadParams(f"preset parameter {key!r} given twice")
            if key in ("e", "a", "c"):
                kwargs[key] = int(val)
            elif key == "q":
                kwargs[key] = val
            else:
                raise BadParams(f"unknown preset parameter {key!r}")
    return preset(name, cap=cap, **kwargs)


def parse_module_source(src: str, alg: Optional[ShortAlgebra], seed: int, cap: int) -> AModule:
    """A constructor spec or a JSON file path.

    Specs: simple | regular | radical | cyclic:<coords> | malpha:<alpha>
    | random:<g>,<r>.  ``random`` builds A^g and draws r relations in it,
    so g·dim A and r·g·dim A are checked against ``cap`` before anything is
    built or drawn.
    """
    if src.endswith(".json") or os.path.exists(src):
        return serialize.load_module(src, cap)
    if alg is None:
        raise BadParams("module constructor specs need --algebra")
    kind, sep, arg = src.partition(":")
    plain = {"simple": simple_module, "regular": left_regular_module, "radical": radical_module}
    if kind in plain:
        if sep:
            raise BadParams(f"module spec {kind!r} takes no argument, got {src!r}")
        return plain[kind](alg)
    if kind == "cyclic":
        coords = [part.strip() for part in arg.split(",")]
        if len(coords) != alg.dim:
            raise BadParams(f"cyclic spec needs {alg.dim} coordinates")
        return cyclic_submodule(alg, coords)
    if kind == "malpha":
        return m_alpha(alg, arg)
    if kind == "random":
        g, _, r = arg.partition(",")
        g, r = int(g), int(r)
        size = g * alg.dim * max(r, 1)
        if g > 0 and size > cap:
            raise ResourceCapExceeded(size, cap)
        return random_module(alg, g, r, seed)
    raise BadParams(f"unknown module spec {src!r}")


def _emit(args, payload: dict, text_lines: list[str], csv_lines: Optional[list[str]] = None):
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        out = serialize.dumps(payload)
    elif fmt == "csv":
        if csv_lines is None:
            raise BadParams("csv output is only available for sequences")
        out = "\n".join(csv_lines) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    dest = getattr(args, "output", None)
    if dest:
        serialize.save_text(dest, out)
    else:
        sys.stdout.write(out)


def _module_payload(M: AModule) -> dict:
    info = {"dim": M.dim, "top": M.top_dim(), "radical": M.radical().dim,
            "socle": M.socle_dim(), "loewy": M.loewy_length()}
    if M.loewy_length() <= 2:
        info["dim_vector"] = list(dim_vector(M))
    return info


def cmd_algebra(args) -> int:
    if args.action in ("validate", "info"):
        if not args.source:
            raise BadParams("algebra source required")
        alg = parse_algebra_source(args.source, _default_cap())
        rep = alg.validate()
        payload = serialize.report("algebra/" + args.action,
                                   {"source": args.source}, values=rep.as_dict())
        lines = [f"{k}: {v}" for k, v in rep.as_dict().items()]
        _emit(args, payload, lines)
        return EXIT_OK
    if args.action == "preset":
        if not args.source:
            raise BadParams(f"preset name required; available: {', '.join(preset_names())}")
        alg = preset(args.source, e=args.e, a=args.a, c=args.c, q=args.q, cap=_default_cap())
        alg.validate()
        payload = serialize.algebra_to_dict(alg)
        lines = [f"name: {alg.name}", f"hilbert_type: {alg.hilbert_type}",
                 f"dimension: {alg.dim}"]
        if args.output:
            serialize.save_json(args.output, payload)
            sys.stdout.write(f"wrote {args.output}\n")
        else:
            _emit(args, payload, lines)
        return EXIT_OK
    raise BadParams(f"unknown algebra action {args.action!r}")


def cmd_module(args) -> int:
    cap = _default_cap()
    alg = parse_algebra_source(args.algebra, cap) if args.algebra else None
    M = parse_module_source(args.spec, alg, args.seed, cap)
    payload = serialize.module_to_dict(M)
    if args.output:
        serialize.save_json(args.output, payload)
        sys.stdout.write(f"wrote {args.output}\n")
        return EXIT_OK
    info = _module_payload(M)
    _emit(args, payload, [f"{k}: {v}" for k, v in info.items()])
    return EXIT_OK


def cmd_compute(args) -> int:
    alg = parse_algebra_source(args.algebra, args.cap) if args.algebra else None
    M = parse_module_source(args.module, alg, args.seed, args.cap)
    cap = args.cap
    op = args.op
    flags: list[str] = []
    if op == "syzygy":
        result = syzygy(M, cap=cap)
    elif op == "mho":
        step = mho_step(M)
        result = step.cokernel
        if not step.injective:
            flags.append("not_torsionless")
    elif op == "dual":
        result = a_dual(M)
    elif op == "transpose":
        result = transpose(M, cap=cap)
    elif op.startswith("ext:"):
        parts = op.split(":", 2)
        if len(parts) != 3:
            raise BadParams("ext op syntax: ext:<i>:<module>")
        i = int(parts[1])
        N = parse_module_source(parts[2], M.algebra, args.seed, cap)
        value = ext_dim(M, N, i, cap=cap)
        payload = serialize.report(f"compute/ext", {"module": args.module, "i": i,
                                                    "other": parts[2]},
                                   values=value, flags=flags)
        _emit(args, payload, [f"ext^{i}: {value}"])
        return EXIT_OK
    else:
        raise BadParams(f"unknown compute op {op!r}")
    info = _module_payload(result)
    payload = serialize.report("compute/" + op.split(":")[0], {"module": args.module},
                               values=info, flags=flags,
                               module=serialize.module_to_dict(result))
    lines = [f"{k}: {v}" for k, v in info.items()] + [f"flag: {f}" for f in flags]
    _emit(args, payload, lines)
    return EXIT_OK


_CHECKS = {
    "solid": lambda M, args: is_solid(M),
    "torsionless": lambda M, args: is_torsionless(M),
    "reflexive": lambda M, args: is_reflexive(M),
    "aligned": lambda M, args: is_aligned(M, cap=args.cap),
    "semigp": lambda M, args: bool(is_semi_gp(M, bound=args.bound, cap=args.cap)),
    "inftf": lambda M, args: bool(is_inf_torsionfree(M, bound=args.bound, cap=args.cap)),
    "gp": lambda M, args: bool(is_gp(M, bound=args.bound, cap=args.cap)),
}

_BOUNDED_CHECKS = ("semigp", "inftf", "gp")


def cmd_check(args) -> int:
    alg = parse_algebra_source(args.algebra, args.cap) if args.algebra else None
    M = parse_module_source(args.module, alg, args.seed, args.cap)
    if args.predicate not in _CHECKS:
        raise BadParams(f"unknown check {args.predicate!r}")
    value = _CHECKS[args.predicate](M, args)
    flags = []
    if args.predicate in _BOUNDED_CHECKS:
        flags.append(f"bounded:{args.bound}")
    payload = serialize.report("check/" + args.predicate, {"module": args.module},
                               bound=args.bound if args.predicate in _BOUNDED_CHECKS else None,
                               values=value, flags=flags)
    _emit(args, payload, [str(value).lower()])
    return EXIT_OK if value else EXIT_CHECK_FAILED


def cmd_betti(args) -> int:
    alg = parse_algebra_source(args.algebra, args.cap) if args.algebra else None
    M = parse_module_source(args.module, alg, args.seed, args.cap)
    table = betti(M, args.n, cap=args.cap)
    payload = serialize.report("betti", {"module": args.module, "n": args.n},
                               values=list(table.values))
    csv_lines = ["i,t_i"] + [f"{i},{t}" for i, t in enumerate(table.values)]
    _emit(args, payload, [" ".join(str(t) for t in table.values)], csv_lines)
    return EXIT_OK


@contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift Python's cap on the digits of an int-to-text conversion for a block.

    Python 3.11 (and 3.10 from 3.10.7) refuses to print an int of more than
    4300 digits; an older 3.10 has no cap and no setter.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    before = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(before)


def cmd_bseq(args) -> int:
    seq = b_sequence(args.e, args.a, args.n)
    shown = list(seq.values[1:])
    if args.closed_form:
        check_closed_form(seq)
    payload = serialize.report("bseq", {"e": args.e, "a": args.a, "n": args.n},
                               values=shown,
                               flags=(["closed_form_checked"] if args.closed_form else []))
    # b_n has up to n·log10(e) digits, so a long sequence prints ints beyond the cap.
    with _any_int_digits():
        digits = [str(b) for b in shown] if args.format != "json" else []
        csv_lines = ["n,b_n"] + [f"{n},{b}" for n, b in enumerate(digits)]
        _emit(args, payload, [" ".join(digits)], csv_lines)
    return EXIT_OK


def cmd_explore(args) -> int:
    alg = parse_algebra_source(args.algebra, args.cap) if args.algebra else None
    M = parse_module_source(args.module, alg, args.seed, args.cap)
    if args.walk == "omega":
        record = omega_path(M, args.n, cap=args.cap)
        payload = serialize.report("explore/omega", {"module": args.module, "n": args.n},
                                   values=record.as_dict())
        lines = _path_lines(record)
    elif args.walk == "mho":
        record = mho_path(M, args.n)
        payload = serialize.report("explore/mho", {"module": args.module, "n": args.n},
                                   values=record.as_dict())
        lines = _path_lines(record)
    elif args.walk == "complex":
        cls = classify_complex(M, args.back, args.fwd, seed=args.seed, cap=args.cap)
        payload = serialize.report("explore/complex",
                                   {"module": args.module, "back": args.back,
                                    "fwd": args.fwd},
                                   values=cls.as_dict())
        lines = [f"kind: {cls.kind}", f"ranks: {' '.join(str(r) for r in cls.ranks)}"]
        if cls.v_index is not None:
            lines.append(f"v_index: {cls.v_index}")
        if cls.obstruction:
            lines.append(f"obstruction: {cls.obstruction}")
    else:
        raise BadParams(f"unknown walk {args.walk!r}")
    _emit(args, payload, lines)
    return EXIT_OK


def _path_lines(record) -> list[str]:
    lines = [f"{'step':>4} {'t':>4} {'dim':>5}  {'dimvec':>8} {'bip':>4} {'delta':>6}"]
    for s in record.steps:
        dv = f"({s.dim_vector[0]},{s.dim_vector[1]})" if s.dim_vector else "-"
        delta = s.defect if s.defect is not None else "-"
        lines.append(f"{s.index:>4} {s.rank:>4} {s.dim:>5}  {dv:>8} "
                     f"{str(s.bipartite):>4} {str(delta):>6}")
    if record.terminated_reason:
        lines.append(f"terminated: {record.terminated_reason}")
    return lines


def cmd_verify(args) -> int:
    from .verify import run_suite  # the claim suite loads only for verify-paper

    results = run_suite(suite=args.suite, seed=args.seed, cap=args.cap)
    lines = []
    ok_all = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        ok_all = ok_all and r.ok
        lines.append(f"{status} {r.claim_id} [{r.tag}] {r.title}")
        if not r.ok or args.verbose:
            lines.extend("    " + d for d in r.details)
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} claims verified")
    payload = serialize.report("verify-paper", {"suite": args.suite, "seed": args.seed},
                               values=[{"id": r.claim_id, "tag": r.tag, "ok": r.ok,
                                        "details": r.details} for r in results])
    _emit(args, payload, lines)
    return EXIT_OK if ok_all else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortloc",
        description="Exact homological computations over short local algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module_arg=True):
        if module_arg:
            p.add_argument("module", help="module spec or JSON file")
            p.add_argument("--algebra", help="preset spec (name[:k=v,..]) or JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cap", type=int, help="dimension cap for intermediate modules")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("-o", "--output", help="write result to a file")

    p_alg = sub.add_parser("algebra", help="validate, inspect or emit algebras")
    p_alg.add_argument("action", choices=("validate", "info", "preset"))
    p_alg.add_argument("source", nargs="?",
                       help="algebra source (validate/info) or preset name (preset)")
    p_alg.add_argument("--e", type=int)
    p_alg.add_argument("--a", type=int)
    p_alg.add_argument("--c", type=int)
    p_alg.add_argument("--q")
    p_alg.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_alg.add_argument("-o", "--output")
    p_alg.set_defaults(fn=cmd_algebra)

    p_mod = sub.add_parser("module", help="build modules from constructor specs")
    p_mod.add_argument("action", choices=("make",))
    p_mod.add_argument("spec", help="simple | regular | radical | cyclic:<coords> "
                                    "| malpha:<alpha> | random:<g>,<r> | file.json")
    p_mod.add_argument("--algebra")
    p_mod.add_argument("--seed", type=int, default=0)
    p_mod.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_mod.add_argument("-o", "--output")
    p_mod.set_defaults(fn=cmd_module)

    p_cmp = sub.add_parser("compute", help="syzygy, mho, dual, transpose, ext:<i>:<N>")
    p_cmp.add_argument("op")
    common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compute)

    p_chk = sub.add_parser("check", help="boolean predicates; exit 1 when false")
    p_chk.add_argument("predicate", choices=sorted(_CHECKS))
    common(p_chk)
    p_chk.add_argument("--bound", type=int, default=homology.DEFAULT_BOUND)
    p_chk.set_defaults(fn=cmd_check)

    p_bet = sub.add_parser("betti", help="Betti numbers t_0..t_n")
    common(p_bet)
    p_bet.add_argument("--n", type=int, required=True)
    p_bet.set_defaults(fn=cmd_betti)

    p_bsq = sub.add_parser("bseq", help="the recursion b_{n+1} = e b_n - a b_{n-1}")
    p_bsq.add_argument("--e", type=int, required=True)
    p_bsq.add_argument("--a", type=int, required=True)
    p_bsq.add_argument("--n", type=int, required=True)
    p_bsq.add_argument("--closed-form", action="store_true", dest="closed_form",
                       help="also check the closed form (needs 4a < e^2)")
    p_bsq.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_bsq.add_argument("-o", "--output")
    p_bsq.set_defaults(fn=cmd_bseq)

    p_exp = sub.add_parser("explore", help="walk syzygy/cosyzygy orbits")
    p_exp.add_argument("walk", choices=("omega", "mho", "complex"))
    common(p_exp)
    p_exp.add_argument("--n", type=int, default=6, help="steps for omega/mho walks")
    p_exp.add_argument("--back", type=int, default=4)
    p_exp.add_argument("--fwd", type=int, default=4)
    p_exp.set_defaults(fn=cmd_explore)

    p_ver = sub.add_parser("verify-paper", help="run the built-in verification suite")
    p_ver.add_argument("--suite", choices=("all", "fast"), default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cap", type=int)
    p_ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ver.add_argument("--verbose", action="store_true")
    p_ver.add_argument("-o", "--output")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cap = _default_cap()
        if "cap" in args and args.cap is None:
            args.cap = cap
        if getattr(args, "bound", 1) < 1:
            print("error: --bound must be at least 1", file=sys.stderr)
            return EXIT_USAGE
        if getattr(args, "cap", 1) < 1:
            print("error: --cap must be at least 1", file=sys.stderr)
            return EXIT_USAGE
        return args.fn(args)
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (BadParams, ShortlocError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
