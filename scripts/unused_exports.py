#!/usr/bin/env python3
"""List the values a lib/**/*.mli exports that no other source file names.

A word-level scan: an exported `val NAME` counts as used when the word NAME
appears in any .ml/.mli under lib, bin, bench, test, perfbench or examples
other than its own module's .ml and .mli.  Common words ("run", "pp") hide
real unused exports, so the scan under-reports; it never over-reports.

    python3 scripts/unused_exports.py            # list, then the count
    python3 scripts/unused_exports.py --max N    # also fail if count > N
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
DIRS = ["lib", "bin", "bench", "test", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def sources():
    for d in DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [n for n in dirnames if not n.startswith((".", "_"))]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main(argv):
    words = {}
    for path in sources():
        with open(path, encoding="utf-8", errors="replace") as fh:
            words[path] = set(WORD.findall(fh.read()))
    unused = []
    for mli in sorted(p for p in words if p.endswith(".mli") and "/lib/" in p):
        own = {mli, mli[:-1]}
        with open(mli, encoding="utf-8", errors="replace") as fh:
            names = VAL.findall(fh.read())
        for name in names:
            if not any(name in ws for p, ws in words.items() if p not in own):
                unused.append((os.path.relpath(mli, ROOT), name))
    for mli, name in unused:
        print(f"{mli}: {name}")
    print(f"unused exports: {len(unused)}")
    if len(argv) == 2 and argv[0] == "--max" and len(unused) > int(argv[1]):
        print(f"more than {argv[1]} unused exports", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
