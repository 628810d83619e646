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
below, every psi and f kind, windows, --no-coprime, and the refusals that
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
    return out + _layer_argvs(dset)


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
    "measure --set 10000019:0,1 --window 0:1/7", "measure --window 1/2",
    "layer --psi powlog:2 --n 2", "layer --psi exp:2 --n 2", "layer --psi table:2=0 --n 2",
    "layer --psi pow:gamma/0 --n 3", "layer --psi pow:2 --n 2 --window 1e5000:1e5000",
    "layer --psi pow:2 --n 2 --window 1/2:1/2", "layer --psi pow:10000 --n 10",
    "layer --psi pow:10000 --n 0", "layer --psi pow:2000000 --n 10",
    "layer --psi pow:5000 --n 3", "layer --psi pow:2 --n 30",
    "series --psi pow:2 --f pow:gamma/0 --nmax 3",
    "series --psi powlog:2,gamma/0 --f pow:1 --nmax 3", "series --psi pow:2 --f exp:1 --nmax 3",
    "series --psi pow:2 --f pow:0 --nmax 3", "series --psi pow:2 --f pow:1 --nmax 0",
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


def corpus() -> list[str]:
    """Every argv of the corpus, sorted, each once."""
    argvs = set(REFUSALS)
    for argv in [a for dset in SETS for a in _set_argvs(dset)] + _sparse_argvs():
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
