"""Instance file I/O and the `mtk` command line.

Instance files are JSON with optional top-level keys "hypergraph",
"complex", "matroids", "weights", "parts", and "provenance".
Rationals travel as strings "p/q"; vertices are 0-based.

Exit codes: 0 pass, 1 violation found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import coloring, polytopes, topology, verify
from .coloring import MATDIM_MAX_N, matdim_exact, matdim_upper
from .constructions import Instance, canned, check_sides, instance_to_dict
from .core import Complex, Hypergraph, independence_complex, mask_of
from .errors import DomainError, MtkError, ParseError, Unsupported, ValidationError
from .matroid import (
    ExplicitMatroid,
    GenPartitionMatroid,
    GraphicMatroid,
    Matroid,
    MatroidSystem,
    UniformMatroid,
)
from .polytopes import PolytopeRef


def parse_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text at byte {e.start}")
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    return instance_from_dict(raw, origin=path)


def instance_from_dict(raw: dict, origin: str = "<dict>") -> Instance:
    if not isinstance(raw, dict):
        raise ParseError(f"{origin}: top level must be an object")
    hypergraph = None
    complex_ = None
    system = None
    parts = None
    weights = {}
    if "hypergraph" in raw:
        h = raw["hypergraph"]
        _need(h, "hypergraph", ("n", "edges"), origin)
        try:
            hypergraph = Hypergraph(
                _int(h["n"], f"{origin}: hypergraph.n"),
                _masks(h["edges"], f"{origin}: hypergraph.edges"),
            )
        except (ValueError, TypeError) as e:
            raise ValidationError(f"{origin}: hypergraph: {e}")
    if "complex" in raw:
        c = raw["complex"]
        _need(c, "complex", ("n", "maximal_faces"), origin)
        try:
            complex_ = Complex(
                _int(c["n"], f"{origin}: complex.n"),
                _masks(c["maximal_faces"], f"{origin}: complex.maximal_faces"),
            )
        except (ValueError, TypeError) as e:
            raise ValidationError(f"{origin}: complex: {e}")
    if "matroids" in raw:
        if not isinstance(raw["matroids"], list):
            raise ParseError(f"{origin}: matroids must be a list")
        ms = [
            _matroid_from_dict(m, f"{origin}: matroids[{i}]")
            for i, m in enumerate(raw["matroids"])
        ]
        try:
            system = MatroidSystem(ms)
        except ValueError as e:
            raise ValidationError(f"{origin}: matroids: {e}")
    if "parts" in raw:
        try:
            parts = tuple(_masks(raw["parts"], f"{origin}: parts"))
        except (ValueError, TypeError) as e:
            raise ValidationError(f"{origin}: parts: {e}")
        if hypergraph is None:
            raise ValidationError(f"{origin}: parts: sides need a hypergraph")
        try:
            check_sides(hypergraph, parts)
        except DomainError as e:
            raise ValidationError(f"{origin}: parts: {e}")
    raw_weights = raw.get("weights", {})
    if not isinstance(raw_weights, dict):
        raise ParseError(f"{origin}: weights must be an object")
    for key, vals in raw_weights.items():
        if not isinstance(vals, list):
            raise ParseError(f"{origin}: weights[{key}] must be a list")
        weights[key] = tuple(
            _rational(s, f"{origin}: weights[{key}][{i}]") for i, s in enumerate(vals)
        )
    return Instance(
        provenance=raw.get("provenance", origin),
        hypergraph=hypergraph,
        parts=parts,
        complex_=complex_,
        system=system,
        weights=weights,
    )


def _int(x, field: str) -> int:
    """x when it is an integer >= 0: every integer in an instance file is
    a size, rank, cap or vertex.  JSON true, false and floats are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{field}: expected an integer, got {x!r}")
    if x < 0:
        raise ValidationError(f"{field}: expected a non-negative integer, got {x}")
    return x


def _ints(items, field: str) -> list[int]:
    return [_int(x, f"{field}[{i}]") for i, x in enumerate(items)]


def _masks(lists, field: str) -> list[int]:
    """The vertex mask of each list of vertices in lists."""
    return [mask_of(_ints(items, f"{field}[{i}]")) for i, items in enumerate(lists)]


def _rational(x, field: str) -> Fraction:
    """x when it is an integer or a string such as "1/3" or "0.1"; JSON
    true, false and floats are refused, as a float is rarely the
    rational it was written as."""
    if not isinstance(x, (bool, float)):
        try:
            return Fraction(x)
        except (ValueError, TypeError, ZeroDivisionError):
            pass
    raise ValidationError(f'{field}: expected an integer or a string such as "1/3", got {x!r}')


def _need(obj, name, keys, origin):
    if not isinstance(obj, dict):
        raise ParseError(f"{origin}: {name} must be an object")
    for k in keys:
        if k not in obj:
            raise ParseError(f"{origin}: {name} missing field {k!r}")


def _matroid_from_dict(m: dict, origin: str) -> Matroid:
    if not isinstance(m, dict):
        raise ParseError(f"{origin}: must be an object")
    kind = m.get("kind")
    try:
        if kind == "uniform":
            return UniformMatroid(_int(m["rank"], f"{origin}.rank"), _int(m["n"], f"{origin}.n"))
        if kind == "gen_partition":
            parts = _masks(m["parts"], f"{origin}.parts")
            n = 0
            for p in parts:
                n = max(n, p.bit_length())
            if "n" in m:
                n = _int(m["n"], f"{origin}.n")
            return GenPartitionMatroid(n, parts, _ints(m["caps"], f"{origin}.caps"))
        if kind == "graphic":
            edges = [tuple(_ints(e, f"{origin}.edges[{i}]")) for i, e in enumerate(m["edges"])]
            return GraphicMatroid(_int(m["vertices"], f"{origin}.vertices"), edges)
        if kind == "explicit":
            return ExplicitMatroid(
                Complex(_int(m["n"], f"{origin}.n"), _masks(m["maximal"], f"{origin}.maximal"))
            )
    except KeyError as e:
        raise ParseError(f"{origin}: missing field {e}")
    except (ValueError, TypeError) as e:
        raise ValidationError(f"{origin}: {e}")
    raise ParseError(f"{origin}: unknown matroid kind {kind!r}")


# -- commands ---------------------------------------------------------------


def _main_complex(inst: Instance) -> Complex:
    if inst.complex_ is not None:
        return inst.complex_
    if inst.system is not None:
        return inst.system.intersection_complex()
    if inst.hypergraph is not None:
        return independence_complex(inst.hypergraph)
    raise ValidationError("instance holds no complex, system, or hypergraph")


# The weight key each invariant reads; the other invariants read none.
_WEIGHT_KEYS = {"chi_star": "h", "expansions": "h", "numbers": "w", "hyper_numbers": "w"}


def cmd_invariants(args) -> int:
    what = args.what.split(",") if args.what else ["eta_h", "chi", "chi_star"]
    known = (
        "eta_h", "chi", "chi_star", "chi_list", "expansions", "homology",
        "numbers", "hyper_numbers", "matdim",
    )
    unknown = [item for item in what if item not in known]
    if unknown:
        raise Unsupported(f"unknown invariant {unknown[0]!r}; known: {', '.join(known)}")
    inst = parse_instance(args.file)
    # numbers and hyper_numbers read the system and the hypergraph, not the
    # main complex, which can be past the 2^n sweep cap where they are not
    if set(what) - {"numbers", "hyper_numbers"}:
        c = _main_complex(inst)
    h = inst.weights.get("h")
    out = {}
    for item in what:
        if item == "eta_h":
            out["eta_h"] = str(topology.eta_h(c))
        elif item == "chi":
            out["chi"] = str(coloring.chi(c))
        elif item == "chi_star":
            out["chi_star"] = str(coloring.chi_star(c, (1,) * c.n if h is None else h))
        elif item == "chi_list":
            lo, hi = coloring.chi_list_number(c)
            out["chi_list"] = str(lo) if lo == hi else f"[{lo},{hi}]"
        elif item == "expansions":
            rec = topology.expansions(c, h)
            out["delta_r"] = str(rec.delta_r)
            out["delta_eta"] = str(rec.delta_eta)
            out["delta"] = str(rec.delta)
            out["delta_h"] = str(rec.delta_h)
        elif item == "homology":
            prof = topology.reduced_homology(c)
            out["betti"] = list(prof.betti)
            out["torsion"] = list(prof.torsion)
        elif item == "numbers":
            if inst.system is None:
                raise ValidationError("invariant 'numbers' needs a matroid system")
            w = inst.weights.get("w", (1,) * inst.system.n)
            nums = polytopes.matroidal_numbers(inst.system, w)
            out["nu_w"] = str(nums.nu)
            out["nu_star_w"] = str(nums.nu_star)
            out["tau_star_w"] = str(nums.tau_star)
            out["tau_w"] = str(nums.tau)
        elif item == "hyper_numbers":
            if inst.hypergraph is None:
                raise ValidationError("invariant 'hyper_numbers' needs a hypergraph")
            w = inst.weights.get("w")
            nums = polytopes.hyper_numbers(inst.hypergraph, w)
            out["hyper_nu_w"] = str(nums.nu)
            out["hyper_nu_star_w"] = str(nums.nu_star)
            out["hyper_tau_star_w"] = str(nums.tau_star)
            out["hyper_tau_w"] = str(nums.tau)
            out["w_star"] = str(nums.w_star)
        elif item == "matdim":
            out["matdim_upper"] = str(matdim_upper(c)[0])
            if c.n <= MATDIM_MAX_N:
                out["matdim_exact"] = str(matdim_exact(c))
            else:
                print(
                    f"warning: matdim_exact left out: n = {c.n} > MATDIM_MAX_N = {MATDIM_MAX_N}",
                    file=sys.stderr,
                )
    read = {_WEIGHT_KEYS[item] for item in what if item in _WEIGHT_KEYS}
    ignored = sorted(set(inst.weights) - read)
    if ignored:
        print(
            f"warning: invariants {','.join(what)!r} ignore weights {', '.join(ignored)}",
            file=sys.stderr,
        )
    if args.report == "jsonl":
        print(json.dumps(out, sort_keys=True))
    else:
        for k in sorted(out):
            print(f"{k:>14}: {out[k]}")
    return 0


def cmd_verify(args) -> int:
    overrides = {}
    if args.max_n is not None:
        overrides["max_n"] = args.max_n
    if args.max_k is not None:
        overrides["max_k"] = args.max_k
    if args.suite != "all" and args.suite not in verify.SUITES:
        print(f"unknown suite {args.suite!r}; known: all, "
              + ", ".join(sorted(verify.SUITES)), file=sys.stderr)
        return 2
    records = verify.run_suite(args.suite, seed=args.seed, **overrides)
    violated = 0
    for r in records:
        if args.report == "jsonl":
            print(r.to_json())
        else:
            print(
                f"{r.verdict:>12}  {r.claim:<40} {r.instance:<34} "
                f"{r.lhs} {r.relation} {r.rhs}"
            )
        if r.verdict == "violated":
            violated += 1
    summary = f"{len(records)} records, {violated} violated"
    if args.report != "jsonl":
        print(summary)
    return 1 if violated else 0


def cmd_gen(args) -> int:
    params = {}
    for kv in args.param or []:
        key, _, val = kv.partition("=")
        try:
            params[key] = int(val)
        except ValueError:
            print(f"--param {key!r} needs an integer value: {key}=<int>", file=sys.stderr)
            return 2
    inst = canned(args.name, **params)
    payload = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload + "\n")
        except OSError as e:
            print(f"cannot write {args.output}: {e.strerror}", file=sys.stderr)
            return 2
    else:
        print(payload)
    return 0


def cmd_ratio(args) -> int:
    bname, _, aname = args.pair.partition(":")
    if bname not in ("P", "Q", "R") or aname not in ("P", "Q", "R"):
        print(f"unknown pair {args.pair!r}; use e.g. R:P, R:Q, Q:P", file=sys.stderr)
        return 2
    inst = parse_instance(args.file)
    if inst.system is None:
        raise ValidationError("ratio needs a matroid system")
    system = inst.system
    refs = {"R": PolytopeRef.R(system)}
    if {bname, aname} != {"R"}:
        # P and Q live on the intersection complex, refused past the sweep cap.
        c = system.intersection_complex()
        refs.update(P=PolytopeRef.P(c), Q=PolytopeRef.Q(c))
    val = polytopes.ratio(refs[bname], refs[aname])
    if inst.weights:  # ratio reads no weights
        ignored = ", ".join(sorted(inst.weights))
        print(f"warning: ratio {args.pair!r} ignores weights {ignored}", file=sys.stderr)
    print(val)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mtk",
        description="Exact invariants and theorem checks for matroid systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="compute invariants of an instance file")
    p.add_argument("file")
    p.add_argument("--what", default="", help="comma list: eta_h,chi,chi_star,...")
    p.add_argument("--report", choices=("table", "jsonl"), default="table")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--report", choices=("table", "jsonl"), default="table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a canned instance file")
    p.add_argument("name")
    p.add_argument("--param", action="append", help="k=v (repeatable)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("ratio", help="polytope blow-up ratio for an instance")
    p.add_argument("file")
    p.add_argument("--pair", default="R:P")
    p.set_defaults(fn=cmd_ratio)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except MtkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # a ground set too large to hold as a mask
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
