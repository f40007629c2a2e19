"""Command-line front end.

Subcommands: crystal, basicset, schur, kl, verify-decomp.  Exit codes follow
a strict contract: 0 for success, 1 for a mathematical verification failure
(a property check or a basic-set verification that comes back negative),
2 for usage or input errors.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import basicsets, fock, schur
from .basicsets import DecompMatrix, SpecParams
from .coxeter import CoxeterType
from .fock import ARIKI, FLOTW, FockParams
from .klcells import (CBASIS_CAP, HCONST_CAP, WITNESS_FIELDS, KLData, PropertyFailure,
                      coeff_prefix, property_name, tt_text)


def _parse_bipartition(text: str):
    lam = json.loads(text)
    if not (isinstance(lam, list) and len(lam) == 2 and all(map(basicsets.is_int_list, lam))):
        raise ValueError(f"--bipartition {text!r} is not a JSON list of two integer lists")
    return tuple(tuple(c) for c in lam)


def _print_json(data):
    print(json.dumps(data, sort_keys=True))


# -- crystal ------------------------------------------------------------------

def _cmd_crystal(args) -> int:
    params = FockParams(l=args.l, r=args.r, u=tuple(args.u),
                        node_order=args.order)
    graph = fock.crystal(params, args.n)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot())
    else:
        graph.write_json(sys.stdout.write)
        sys.stdout.write("\n")
    return 0


# -- basicset -----------------------------------------------------------------

def _cmd_basicset(args) -> int:
    params = SpecParams(char=args.char, xi_order=args.xi_order, a=args.a, b=args.b)
    if args.type == "A":
        labels, tag = basicsets.basic_set_sym(params, args.n), "e-regular"
    elif args.type == "B":
        labels, tag = basicsets.basic_set_B(params, args.n)
    else:
        labels, tag = basicsets.basic_set_D(params, args.n), "Jacon-D"
    if args.format == "text":
        print(f"# {tag}")
        for lab in labels:
            print(json.dumps(lab))
    else:
        _print_json({"type": args.type, "labels": labels, "tag": tag})
    return 0


# -- schur ---------------------------------------------------------------------

def _print_invariant_table(rows: list[dict]) -> None:
    labels = [r["label"] if isinstance(r["label"], str) else json.dumps(r["label"])
              for r in rows]
    label_w = max(map(len, labels))
    print(f"{'E':<{label_w}}  {'f':>4}  alpha")
    for label, r in zip(labels, rows):
        print(f"{label:<{label_w}}  {r['f']:>4}  {r['alpha']}")


def _cmd_schur(args) -> int:
    if args.bipartition is not None:
        if args.type != "B":
            raise ValueError(f"--bipartition is for type B only, not type {args.type}")
        lam = _parse_bipartition(args.bipartition)
        poly = schur.schur_element_B(lam, args.a, args.b)
        pair = schur._extract_invariants(poly)
        _print_json({"type": "B", "label": lam, "a": args.a, "b": args.b,
                     "f": pair.f, "alpha": pair.alpha,
                     "element": poly.json_pairs(), "text": poly.text()})
        return 0
    rows = [{"label": label, "f": pair.f, "alpha": pair.alpha}
            for label, pair in schur.all_invariants(args.type, args.a, args.b, args.n)]
    out = {"type": args.type, "a": args.a, "rows": rows}
    if args.type in ("B", "G2", "F4"):
        out["b"] = args.b
    if args.type in ("A", "B", "D"):
        out["n"] = args.n
        rows.sort(key=lambda r: (r["alpha"], json.dumps(r["label"])))
    if args.format == "text":
        _print_invariant_table(rows)
    else:
        _print_json(out)
    return 0


# -- kl -------------------------------------------------------------------------

def _witness(res, name: list[str]) -> list:
    """A check's witness with its element fields as names (WITNESS_FIELDS)."""
    render = {"w": name.__getitem__, "ws": lambda ws: [name[w] for w in ws], "n": int}
    return [render[kind](x) for kind, x in zip(WITNESS_FIELDS[res.name], res.witness)]


def _write_cbasis(kl: KLData, name: list[str]) -> None:
    """Write the "cbasis" and "cbasis_text" members of the kl report, row by
    row, as `json.dumps(sort_keys=True)` writes them: each w maps to the JSON
    pairs of c_w by element name, and to the Tt-expansion text.

    Each distinct coefficient is rendered once, as its pairs and its text
    prefix.  Names, coefficients and texts are ASCII with no quote or
    backslash, so JSON quotes them as they are.
    """
    rendered: dict = {}  # coefficient -> (its JSON pairs, its prefix in the text)
    for row in kl.cbasis:
        for c in row.values():
            if c not in rendered:
                pairs = ", ".join(f'[{e}, "{k}"]' for e, k in c.items())
                rendered[c] = (f"[{pairs}]", coeff_prefix(c))
    quoted = [f'"{n}"' for n in name]
    tt = ["Tt_" + n for n in name]
    order = sorted(range(len(name)), key=name.__getitem__)
    write = sys.stdout.write
    write('{"cbasis": {')
    for i, w in enumerate(order):
        row = kl.cbasis[w]
        terms = ", ".join(f"{quoted[y]}: {rendered[row[y]][0]}"
                          for y in sorted(row, key=name.__getitem__))
        write(f'{", " if i else ""}{quoted[w]}: {{{terms}}}')
    write('}, "cbasis_text": {')
    for i, w in enumerate(order):
        text = tt_text(tt, kl.cbasis[w], lambda c: rendered[c][1])
        write(f'{", " if i else ""}{quoted[w]}: "{text}"')
    write("}, ")


def _cmd_kl(args) -> int:
    ctype = CoxeterType(args.type, args.rank)
    checks = [property_name(c) for c in args.check or ()]
    kl = KLData(ctype, args.weights, force=args.force)  # refused over the caps first

    # every stage runs before the names are read, so that an over-cap job is
    # refused before the group is enumerated
    results = [kl.check_property(c) for c in checks]
    emit = args.emit
    value = getattr(kl, {"phimatrix": "phi_matrix"}.get(emit, emit)) if emit else None
    name = [w.name() for w in kl.group.elements]

    report: dict = {"type": str(ctype), "weights": list(kl.weights.values),
                    "elements": {name[w.index]: list(w.word) for w in kl.group.elements}}
    if checks:
        report["checks"] = []
        for res in results:
            entry = {"property": res.name, "passed": res.passed}
            if res.witness is not None:
                entry["witness"] = _witness(res, name)
            report["checks"].append(entry)
    if emit == "afn":
        report["afn"] = dict(zip(name, value))
    elif emit == "gamma":
        report["gamma"] = [[name[x], name[y], name[z], g]
                           for (x, y, z), g in sorted(value.items())]
    elif emit == "dinv":
        report["dinv"] = [name[d] for d in sorted(value)]
        report["nz"] = {name[d]: kl.nz[d] for d in sorted(value)}
    elif emit == "jring":
        report["unit"] = {name[d]: c for d, c in sorted(value.unit.items())}
        report["idempotents"] = {
            str(a): {name[d]: c for d, c in sorted(ta.items())}
            for a, ta in sorted(value.level_idempotents.items())}
    elif emit == "phimatrix":
        det = kl.phi_matrix_det()
        report["phimatrix"] = [[c.json_pairs() for c in row] for row in value]
        report["det"] = det.json_pairs()
        report["det_text"] = det.text()

    text = json.dumps(report, sort_keys=True)
    if emit == "cbasis":
        # "cbasis" and "cbasis_text" sort before every other key of the report
        _write_cbasis(kl, name)
        text = text[1:]
    print(text)
    return 1 if any(not res.passed for res in results) else 0


# -- verify-decomp ----------------------------------------------------------------

def _cmd_verify(args) -> int:
    try:
        matrix = DecompMatrix.load(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot ingest {args.file}: {exc}", file=sys.stderr)
        return 2
    result = basicsets.verify_decomp(matrix)
    _print_json(result.to_json_dict(matrix))
    return 0 if result.exists else 1


# -- parser -------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _nonneg_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckekit",
        description="Exact Hecke-algebra combinatorics: crystals, basic sets, "
                    "Schur invariants, Kazhdan-Lusztig data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="highest-weight crystal graphs")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--u", type=_int_list, required=True, help="comma separated")
    p.add_argument("--n", type=_nonneg_int, required=True, help="level bound")
    p.add_argument("--order", choices=[FLOTW, ARIKI], default=FLOTW)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("basicset", help="canonical basic sets")
    p.add_argument("--type", choices=["A", "B", "D"], required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--xi-order", dest="xi_order", type=int, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_basicset)

    p = sub.add_parser("schur", help="Schur-element invariant tables")
    p.add_argument("--type", choices=["A", "B", "D", "G2", "F4"], required=True)
    p.add_argument("--n", type=_nonneg_int, default=0)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--bipartition", help="JSON pair of part lists, type B only")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig data and checks")
    p.add_argument("--type", choices=["A", "B", "D", "G2", "F4"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--weights", type=_int_list, required=True,
                   help="a for A/D; a,b for B/G2/F4")
    p.add_argument("--emit", choices=["cbasis", "afn", "gamma", "dinv",
                                      "jring", "phimatrix"])
    p.add_argument("--check", type=lambda s: s.split(","), default=None,
                   help="comma separated property names, e.g. P2,P7,P15")
    p.add_argument("--force", action="store_true",
                   help=f"lift the size caps: |W| <= {CBASIS_CAP} for the "
                        f"c-basis and cells, <= {HCONST_CAP} for structure "
                        "constants (--check, gamma, jring, phimatrix)")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("verify-decomp", help="verify a decomposition matrix")
    p.add_argument("file")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:  # every input error of the package is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropertyFailure as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
