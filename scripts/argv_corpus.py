#!/usr/bin/env python3
"""The byte-identity oracle: a fixed corpus of CLI argvs and the hash of
what each one prints.

    PYTHONPATH=src python scripts/argv_corpus.py --check
    PYTHONPATH=src python scripts/argv_corpus.py --pin

Every argv runs in this process through `cli.main`, and the sha256 of its
stdout, stderr and exit code, cut to 16 hex digits, is its hash.
`argv_corpus.txt`, next to this script, holds one line per argv: the
hash, a space, then the argv.  `--check` exits 1 and lists each argv
whose hash changed, or that is new or gone; `--pin` rewrites the file.

The corpus covers all 14 commands in both output formats on the sets
below, every psi and f kind, windows (their ends in gaps, on cell
boundaries and at 0 and 1 too), --no-coprime, and the refusals that
exit fast.  A change that alters any report re-pins in the same commit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cantorapprox.cli import SUBCOMMAND_OPTIONS, main

MANIFEST = Path(__file__).with_name("argv_corpus.txt")

SETS = ("3:0,2", "4:0,3", "5:0,2,3", "5:1,3", "6:1,2,4", "9:0,2,6,8")
FORMATS = ("", " --output csv")

# psi of every kind: powers with rational and gamma-symbolic exponents,
# power-logs, a table, and a truncated power
PSIS = ("pow:2", "pow:3/2", "pow:gamma", "pow:2*gamma", "pow:gamma/2", "pow:3/gamma",
        "powlog:2,1", "powlog:3/2,-1/2", "table:1=1/3,2=1/20,3=1/90,4=1/500,5=1/2000,6=1/9000",
        "pow:2 --trunc 1/2")
FS = ("pow:1", "pow:gamma", "pow:1/2*gamma", "pow:1/2",
      "table:1=1/2,2=1/5,3=1/9,4=1/40,5=1/99,6=1/300")
WINDOWS = ("", " --window 1/7:6/7", " --window 0:1/10 --no-coprime")


def _layer_argvs(dset: str) -> list[str]:
    # base 9 has 4^n centers at level n: keep its levels low
    top = 2 if dset.startswith("9:") else 3
    out = []
    for psi in PSIS:
        for window in WINDOWS:
            tail = f" --set {dset} --psi {psi}{window}"
            out += [f"layer{tail} --n {n}" for n in range(1, top + 1)]
            out += [f"pairwise{tail} --m 1 --n {top}",
                    f"quasi-scan{tail} --nmax {top + 1}",
                    f"bc-ratio{tail} --q {top}"]
        for f in FS:
            out += [f"series --set {dset} --psi {psi} --f {f} --nmax 6",
                    f"tail --set {dset} --psi {psi} --f {f} --n0 2 --nmax 6"]
    return out


def _set_argvs(dset: str) -> list[str]:
    base = int(dset.split(":")[0])
    levels = (1, 2, 3) if base == 9 else (1, 3, 5)
    out = [f"measure --set {dset} --window {w}"
           for w in ("0:1", "2/9:4/9", "1/7:6/7", "0:1/1000", "1/3:1/3", "-1/2:1/4")]
    out += [f"full-cover --set {dset} --n {n}{w}"
            for n in levels for w in ("", " --window 1/7:6/7", " --window 0:1/50")]
    out += [f"cf-interval --set {dset} --quotients {q} --depth {d}"
            for q in ("1,1", "2,3", "1,2,1", "5") for d in (2, 6)]
    out += [f"dim-estimate --set {dset} --tau {tau} --n {n}{c}"
            for tau in ("2", "3/2", "5") for n in levels[:2] for c in ("", " --no-coprime")]
    # xi with the coefficient --set gives it: no --coeff
    out += [f"xi-verify --set {dset} --tau {tau} --terms 4{d}"
            for tau in ("3", "5/2") for d in ("", " --depth 20")]
    out += [f"{command} --set {dset} --tau 3 --terms 4{d}"
            for command, d in (("xi-build", ""), ("cf --x xi", " --depth 12"))]
    out += [f"cf --set {dset} --x {x} --depth 12" for x in ("gamma", "golden", "2/7")]
    out += [f"exponent --set {dset} --x gamma --depth 20"]
    return out + _full_cover_argvs(dset) + _layer_argvs(dset)


# windows whose ends fall in a gap of the set, on a level-1 or level-2
# cell boundary, and at 0 and 1, for the sets with and without the digits
# 0 and b - 1
EDGE_WINDOWS = {
    "3:0,2": ("1/2:5/6", "1/9:2/3", "2/9:7/9", "0:2/9", "7/9:1"),
    "5:0,2,3": ("3/10:9/10", "2/25:17/25", "1/5:4/5", "0:3/5", "2/5:1"),
    "5:1,3": ("1/10:1/2", "6/25:16/25", "1/5:3/5", "0:1/2", "1/2:1"),
}
# exact radii on the level-n grid and off it, and an inexact one (two
# radius bounds) without the coprime filter
EDGE_PSIS = ("pow:1", "pow:2", "powlog:2,1 --no-coprime")


def _edge_argvs() -> list[str]:
    """Ball unions and their measure at the window's and the set's edges."""
    out = []
    for dset, windows in EDGE_WINDOWS.items():
        for w in windows:
            out += [f"full-cover --set {dset} --n {n} --window {w}" for n in (1, 2, 3)]
            for psi in EDGE_PSIS:
                tail = f" --set {dset} --psi {psi} --window {w}"
                out += [f"layer{tail} --n {n}" for n in (1, 2, 3)]
                out += [f"pairwise{tail} --m 1 --n 3", f"bc-ratio{tail} --q 3"]
        out += [f"dim-estimate --set {dset} --tau {tau} --n {n}{c}"
                for tau in ("1", "4/3", "5/2") for n in (2, 4, 6) for c in ("", " --no-coprime")]
    return out


def _full_cover_argvs(dset: str) -> list[str]:
    """full-cover on windows of length zero, of measure zero inside a gap,
    inside one level-1 or level-2 cell, with ends on cell boundaries, and
    on windows short of [0, 1] at levels whose listing the `cells` cap
    may refuse."""
    b, digits = int(dset.split(":")[0]), [int(d) for d in dset.split(":")[1].split(",")]
    gap = min(set(range(b)) - set(digits))  # a digit left out
    top = digits[-1]
    p = top * b + digits[0]  # an allowed level-2 prefix
    windows = ("0:0", "1:1", f"1/{b}:1/{b}", f"{2 * gap + 1}/{2 * b}:{2 * gap + 1}/{2 * b}",
               f"{4 * gap + 1}/{4 * b}:{4 * gap + 3}/{4 * b}", f"{gap}/{b}:{gap + 1}/{b}",
               f"{top}/{b}:{top + 1}/{b}", f"{4 * top + 1}/{4 * b}:{4 * top + 3}/{4 * b}",
               f"{4 * p + 1}/{4 * b * b}:{4 * p + 3}/{4 * b * b}", f"{p}/{b * b}:{p + 1}/{b * b}",
               f"1/{b * b}:{b - 1}/{b}")
    out = [f"full-cover --set {dset} --n {n} --window {w}" for w in windows for n in (1, 2, 3)]
    out += [f"full-cover --set {dset} --n {n} --window {w}"
            for n, w in ((20, "0:1/1000"), (30, "1/7:6/7"), (30, "0:1/1000"), (30, "1/3:1/3"))]
    return out


def _sparse_argvs() -> list[str]:
    """xi-build, cf and exponent on every rule, and on --x of every kind."""
    rules = (" --tau 3", " --tau 5/2", " --tau 9/4 --lam 2", " --tau 4 --lam 1/2",
             " --rule factorial", " --tau 3 --set 5:0,3 --coeff 3",
             " --tau 3 --set 7:0,6 --coeff 6")
    out = []
    for rule in rules:
        out += [f"xi-build{rule} --terms {t}" for t in (1, 3, 5, 7)]
        out += [f"cf --x xi{rule} --terms 5 --depth {d}" for d in (10, 40)]
        out += [f"exponent --x xi{rule} --terms 5 --depth 40 --min-q {q}" for q in (2, 50)]
    out += [f"cf --x {x} --depth {d}" for x in ("golden", "sqrt:1/2", "sqrt:2/3", "sqrt:1/5",
                                                "113/355", "3/7", "1/2")
            for d in (1, 5, 30)]
    out += [f"exponent --x {x} --depth 30" for x in ("golden", "sqrt:1/2", "sqrt:2/3")]
    # xi-verify past four terms: the expansion's doubling loop and Legendre
    # bounds that the truncation's exponent does not imply
    out += [f"xi-verify{rule} --terms {t}"
            for rule in (" --tau 11/5", " --tau 5/2", " --tau 11/4", " --tau 3", " --tau 10/3",
                         " --tau 7/2", " --rule factorial")
            for t in (5, 6, 7)]
    # deep factorial expansions, at the depths where the CSV and the JSON
    # report part: a quotient or a witness past the int-to-str limit
    out += ["cf --x xi --rule factorial --terms 3 --depth 160",
            "exponent --x xi --rule factorial --terms 3 --depth 140",
            "exponent --x xi --rule factorial --terms 3 --depth 150"]
    return out


# argvs that a check refuses, with exit code 2 or 3, in well under a second
REFUSALS = (
    "cf --x abc --depth 3", "cf --x golden --depth 0", "cf --x sqrt:2 --depth 3",
    "cf --x 1 --depth 5", "cf --x -3/7 --depth 5", "layer --psi powlog:2,gamma --n 2",
    "xi-build --tau 2 --terms 3",
    "measure --window 0:1 --set 3", "measure --window 1e5000:1e5001",
    "measure --window 2:3", "measure --window=-2:-1",
    "measure --set 10000019:0,1 --window 0:1/7", "measure --window 1/2",
    "layer --psi powlog:2 --n 2", "layer --psi exp:2 --n 2", "layer --psi table:2=0 --n 2",
    "layer --psi pow:gamma/0 --n 3", "layer --psi pow:2 --n 2 --window 1e5000:1e5000",
    "layer --psi pow:2 --n 2 --window 1/2:1/2", "layer --psi pow:10000 --n 10",
    "layer --psi pow:10000 --n 0", "layer --psi pow:2000000 --n 10",
    "layer --psi pow:5000 --n 3", "layer --psi pow:2 --n 30",
    "series --psi pow:2 --f pow:gamma/0 --nmax 3",
    "series --psi powlog:2,gamma/0 --f pow:1 --nmax 3", "series --psi pow:2 --f exp:1 --nmax 3",
    "series --psi pow:2 --f pow:0 --nmax 3", "series --psi pow:2 --f pow:1 --nmax 0",
    "series --psi pow:2 --f table:1=-1/2,2=-1 --nmax 2",
    "tail --psi pow:2 --f table:1=-1,2=1 --n0 1 --nmax 2",
    "series --psi pow:2 --f table:1=1/2,2=0 --nmax 2",
    # psi tables with a value <= 0, first or past the levels read
    "tail --psi table:1=-1/2,2=1/9 --f pow:1 --n0 1 --nmax 2",
    "series --psi table:1=-1/2,2=1/9 --f pow:1 --nmax 2",
    "layer --psi table:1=-1/2,2=1/9 --n 1", "quasi-scan --psi table:1=-1/2,2=1/9 --nmax 2",
    "bc-ratio --psi table:1=-1/2,2=1/9 --q 2", "pairwise --psi table:1=-1/2,2=1/9 --m 1 --n 2",
    "layer --psi table:1=1/9,2=-1 --n 1", "series --psi table:1=1/9,2=0 --f pow:1 --nmax 2",
    "tail --psi table:1=1/9,2=0 --f pow:1 --n0 1 --nmax 1",
    "series --psi pow:5000 --f pow:1 --nmax 3", "series --psi table:5=1/2 --f pow:1 --nmax 3",
    "tail --psi pow:2 --f pow:1 --n0 0 --nmax 3", "tail --psi pow:3000 --f pow:1 --n0 1 --nmax 4",
    "bc-ratio --psi pow:2 --q 0", "dim-estimate --tau 1/2 --n 2",
    "dim-estimate --tau 2 --n -1", "dim-estimate --tau 10000000 --n 1",
    "exponent --x 1/2 --depth 5", "exponent --x golden --depth 8 --min-q 1000",
    "cf-interval --quotients 1,0 --depth 3", "cf-interval --quotients 1 --depth 0",
    "cf-interval --quotients x --depth 3", "full-cover --n 0", "full-cover --n 30",
    "xi-build --set 2:0,1 --tau 3 --terms 4", "xi-build --set 0:0,1 --tau 3 --terms 4",
    "xi-build --lam= --tau 3 --terms 4", "xi-build --tau 3 --lam 1/10 --terms 2",
    "xi-build --tau 3 --coeff 2 --set 4:0,3", "xi-build --set 4:0,2 --tau 3",
    "xi-verify --set 4:0,2 --tau 3 --terms 4", "cf --x xi --set 4:0,2 --depth 5",
    "measure --set 3:0 --window 0:1", "measure --set 3:0,3 --window 0:1",
    "xi-build --tau 3 --terms 100000", "xi-build --tau 3 --lam 10000000 --terms 2",
    "cf --x xi --tau 3 --terms 100000 --depth 5",
    "cf --x xi --rule factorial --terms 2000 --depth 5",
    "exponent --x xi --tau 3 --terms 100000 --depth 5",
    "xi-verify --tau 3 --terms 100000", "--precision-budget 0 measure --window 0:1",
    "measure --window 0:1 --precision-budget 0", "cf --x gamma --depth 40 --precision-budget 1",
    # malformed command lines and help: the parser's exit codes and text
    "--", "nosuch", "-h", "measure -h", "measure", "measure --window", "measure --win 0:1",
    "measure --window 0:1 --bogus", "layer --psi pow:2 --n x",
    "cf --x golden --depth 3 --output xml", "cf --x golden --depth 3 extra",
    "xi-build --base-override 5 --tau 3",
    "layer --psi pow:2 --n 2 --coprime=1",
)


# one level met twice, counting grids b^L past 2^128, a window far
# narrower than its balls, and radii psi(b^n) past the int-to-str limit at
# levels whose listing the `cells` cap refuses, or admits for a narrow window
LEVEL_EDGES = (
    "pairwise --psi pow:2 --m 3 --n 3", "dim-estimate --tau 50/3 --n 8",
    "dim-estimate --tau 100/3 --n 4", "layer --psi pow:2 --n 1 --window 0:1e-5000",
    "layer --psi pow:2 --n 30000", "layer --psi pow:1000 --n 30",
    "layer --psi pow:1000 --n 30 --window 0:1/10000000000000",
    # exponent denominators over 64, whose powers take the exp path of
    # rational_pow
    "layer --psi pow:200/67 --n 2", "pairwise --psi pow:200/67 --m 1 --n 2",
    "quasi-scan --psi pow:200/67 --nmax 3", "bc-ratio --psi pow:200/67 --q 2",
    "series --psi pow:130/67 --f pow:1 --nmax 4",
    "tail --psi pow:130/67 --f pow:gamma --n0 1 --nmax 4", "dim-estimate --tau 200/67 --n 3",
    # radii below 2^-96, which psi_value refines
    "layer --psi pow:3/2 --n 41 --window 0:1e-20",
    "quasi-scan --psi pow:3/2 --mmin 41 --nmax 42 --window 0:1e-20",
    # ball ends over their bit cap, and cell counts past the print limit
    "quasi-scan --set 5:0,2,3 --psi pow:200 --window 2/9:7/9 --no-coprime --nmax 11",
    "full-cover --n 20000", "layer --psi pow:0 --n 15000",
    "pairwise --psi pow:0 --m 1 --n 15000",
    # a truncation cap c*b^-n over the bit budget
    "layer --psi pow:0 --trunc 1 --n 6000000",
    # a level grid b^n over the bit budget, and a level the cells cap refuses
    # before the levels below it are built, and the levels past it are read
    "cf-interval --quotients 1,1 --depth 6000000", "full-cover --n 20000000",
    "layer --psi table:10000000=1/2 --n 10000000", "bc-ratio --psi pow:0 --trunc 1 --q 23",
    "bc-ratio --psi pow:0 --trunc 1 --q 100000000",
)


def corpus() -> list[str]:
    """Every argv of the corpus, sorted, each once."""
    argvs = set(REFUSALS) | set(LEVEL_EDGES)
    for argv in [a for dset in SETS for a in _set_argvs(dset)] + _edge_argvs() + _sparse_argvs():
        argvs.update(argv + fmt for fmt in FORMATS)
    assert set(SUBCOMMAND_OPTIONS) <= {a.split()[0] for a in argvs if a}
    return sorted(argvs)


def run(argv: str) -> str:
    """The 16-hex-digit hash of argv's stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    blob = f"{out.getvalue()}\0{err.getvalue()}\0{code}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def read_manifest() -> dict[str, str]:
    pins = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, _, argv = line.partition(" ")
        pins[argv] = digest
    return pins


def main_(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--pin", action="store_true", help="rewrite the manifest")
    args = ap.parse_args(argv)
    hashes = {a: run(a) for a in corpus()}
    if args.pin:
        MANIFEST.write_text("".join(f"{h} {a}\n" for a, h in hashes.items()), encoding="utf-8")
        print(f"pinned {len(hashes)} argvs")
        return 0
    pins = read_manifest()
    changed = [a for a in hashes if a in pins and pins[a] != hashes[a]]
    new = [a for a in hashes if a not in pins]
    gone = [a for a in pins if a not in hashes]
    for label, argvs in (("changed", changed), ("new", new), ("gone", gone)):
        for a in argvs:
            print(f"{label}: {a}")
    print(f"{len(hashes)} argvs, {len(changed)} changed, {len(new)} new, {len(gone)} gone")
    return 1 if changed or new or gone else 0


if __name__ == "__main__":
    sys.exit(main_(sys.argv[1:]))
