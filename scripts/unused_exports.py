#!/usr/bin/env python3
"""List the values a lib/**/*.mli exports that no other source file names,
and the library modules no other source file names.

A word-level scan: an exported `val NAME` counts as used when the word NAME
appears in any .ml/.mli under lib, bin, bench, test, perfbench or examples
other than its own module's .ml and .mli.  Common words ("run", "pp") hide
real unused exports, so the scan under-reports; it never over-reports.
A module (lib/**/NAME.mli, module Name) counts as used when the word Name
appears outside comments in another such file; only test files naming it
still reports it (without --tests-only), since a module kept for its own
suite alone is dead code.

    python3 scripts/unused_exports.py            # list, then the count
    python3 scripts/unused_exports.py --max N    # also fail if count > N
    python3 scripts/unused_exports.py --tests-only
        # list the exports that only files under test/ name (never fails:
        # a test oracle is a fine reason to export)
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
DIRS = ["lib", "bin", "bench", "test", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
TOKEN = re.compile(r'\(\*|\*\)|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\\n])\'')


def code_words(text):
    """The words of an OCaml source outside (nested) comments."""
    out, depth, pos = [], 0, 0
    for m in TOKEN.finditer(text):
        if depth == 0:
            out.append(text[pos:m.start()])
        tok = m.group(0)
        if tok == "(*":
            depth += 1
        elif tok == "*)":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(tok)
        pos = m.end()
    if depth == 0:
        out.append(text[pos:])
    return set(WORD.findall(" ".join(out)))


def sources():
    for d in DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [n for n in dirnames if not n.startswith((".", "_"))]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main(argv):
    words, code = {}, {}
    for path in sources():
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        words[path] = set(WORD.findall(text))
        code[path] = code_words(text)
    tests_only = argv == ["--tests-only"]
    test_dir = os.path.join(ROOT, "test") + os.sep
    unused = []
    for mli in sorted(p for p in words if p.endswith(".mli") and "/lib/" in p):
        own = {mli, mli[:-1]}
        module = os.path.basename(mli)[:-4].capitalize()
        users = [p for p, ws in code.items() if p not in own and module in ws]
        if not tests_only and not [p for p in users if not p.startswith(test_dir)]:
            unused.append((os.path.relpath(mli, ROOT), "module " + module))
        with open(mli, encoding="utf-8", errors="replace") as fh:
            names = VAL.findall(fh.read())
        for name in names:
            users = [p for p, ws in words.items() if p not in own and name in ws]
            if tests_only:
                hit = users and all(p.startswith(test_dir) for p in users)
            else:
                hit = not users
            if hit:
                unused.append((os.path.relpath(mli, ROOT), name))
    for mli, name in unused:
        print(f"{mli}: {name}")
    if tests_only:
        print(f"exports only tests name: {len(unused)}")
        return 0
    print(f"unused exports: {len(unused)}")
    if len(argv) == 2 and argv[0] == "--max" and len(unused) > int(argv[1]):
        print(f"more than {argv[1]} unused exports", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
