#!/usr/bin/env python3
"""Fail on exported values that nothing outside their own module calls.

Usage: python3 scripts/unused_exports.py   (scans the tree this script is in)

Every top-level `val NAME` in lib/*/*.mli (values declared inside a
nested `sig ... end` are not counted) must be referenced by a .ml file
of another module under lib, bin, bench, test, perfbench or examples.
A reference is

  * a qualified token `Module.NAME` that is not itself the tail of a
    longer path or a record access (`x.Module.NAME`), or
  * a bare `NAME` in a file that opens `Module` anywhere: `open`,
    `let open`, `include` or a local open `Module.( ... )`.

Comments and string literals are blanked first, so neither a doc
comment nor a message counts as a caller.  A module's own files are its
.ml and, for the build-time-selected backends, the lib/*/backend/*.ml
sources a dune `copy` rule installs under its name; references from
them do not count.

Each such value is either deleted or dropped from its .mli, where the
compiler's unused-value warning then flags it if it becomes dead.
Prints one line per offending value and exits 1 if there is any,
else 0.

The tree is scanned once: every file's qualified tokens and opens are
collected in one pass, so the check takes well under a second.
"""

import os
import re
import sys

SCAN_DIRS = ["lib", "bin", "bench", "test", "perfbench", "examples"]

IDENT = r"[A-Za-z0-9_']"
QUALIFIED = re.compile(r"(?<![\w.'])([A-Z]" + IDENT + r"*)\.([a-z_]" + IDENT + r"*)")
OPEN = re.compile(r"\b(?:open!?|include)\s+([A-Z]" + IDENT + r"*)")
LOCAL_OPEN = re.compile(r"(?<![\w.'])([A-Z]" + IDENT + r"*)\.\s*[(\[{]")
LOWER = re.compile(r"(?<![\w.'])([a-z_]" + IDENT + r"*)")
COPY_RULE = re.compile(r"\(copy\s+(backend/[\w.]+\.ml)\s+(\w+)\.ml\)")
WORD = re.compile(r"[A-Za-z_]" + IDENT + r"*")


# the only tokens that change the lexical state: comment brackets,
# string and quoted-string openers (both are lexed inside comments
# too), and character literals (a quote after an identifier character
# is a prime, as in x')
LEXEME = re.compile(
    r"\(\*|\*\)|\"|\{([a-z_]*)\||(?<![\w'])'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'"
)
STRING_BODY = re.compile(r'(?:[^"\\]|\\.)*"', re.S)


def strip(src):
    """Blank OCaml comments, string and character literals (newlines kept)."""
    out = []
    pos, depth, n = 0, 0, len(src)  # depth: comment nesting

    def blank(i, j):
        out.append(" " + "\n" * src.count("\n", i, j))

    while pos < n:
        m = LEXEME.search(src, pos)
        if not m:
            if depth == 0:
                out.append(src[pos:])
            break
        tok, i = m.group(0), m.start()
        if depth == 0:
            out.append(src[pos:i])
        if tok == "(*":
            if depth == 0:
                comment_start = i
            depth += 1
            pos = m.end()
        elif tok == "*)":
            if depth > 0:
                depth -= 1
                if depth == 0:
                    blank(comment_start, m.end())
            else:
                out.append(tok)
            pos = m.end()
        elif tok == '"':
            body = STRING_BODY.match(src, m.end())
            j = body.end() if body else n
            if depth == 0:
                blank(i, j)
            pos = j
        elif tok.startswith("{"):
            close = src.find("|" + m.group(1) + "}", m.end())
            j = n if close < 0 else close + len(m.group(1)) + 2
            if depth == 0:
                blank(i, j)
            pos = j
        else:
            if depth == 0:
                out.append(" ")
            pos = m.end()
    if depth > 0:
        blank(comment_start, n)
    return "".join(out)


def module_name(path):
    return os.path.basename(path)[:-3].capitalize()


def top_level_vals(mli_text):
    """Names of `val`s at nesting depth 0 (outside every sig/struct/object)."""
    vals, depth = [], 0
    words = WORD.findall(mli_text)
    for k, w in enumerate(words):
        if w in ("sig", "struct", "object", "begin"):
            depth += 1
        elif w == "end":
            depth -= 1
        elif w in ("val", "external") and depth == 0 and k + 1 < len(words):
            vals.append(words[k + 1])
    return vals


def source_files(root):
    for d in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith((".", "_"))]
            for f in sorted(filenames):
                if f.endswith(".ml"):
                    yield os.path.join(dirpath, f)


def backend_owners(root):
    """lib/X/backend/F.ml -> the module its dune copy rule installs it as."""
    owners = {}
    for lib in sorted(os.listdir(os.path.join(root, "lib"))):
        dune = os.path.join(root, "lib", lib, "dune")
        if os.path.isfile(dune):
            with open(dune) as f:
                for src, target in COPY_RULE.findall(f.read()):
                    owners[os.path.join(root, "lib", lib, src)] = target.capitalize()
    return owners


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exports = {}  # module -> [val names]
    mli_of = {}
    for lib in sorted(os.listdir(os.path.join(root, "lib"))):
        libdir = os.path.join(root, "lib", lib)
        if not os.path.isdir(libdir):
            continue
        for f in sorted(os.listdir(libdir)):
            if f.endswith(".mli"):
                path = os.path.join(libdir, f)
                with open(path) as fh:
                    mod = module_name(path[:-1])
                    exports[mod] = top_level_vals(strip(fh.read()))
                    mli_of[mod] = os.path.relpath(path, root)

    owners = backend_owners(root)
    used = set()  # (module, name) referenced from another module
    for path in source_files(root):
        owner = owners.get(path, module_name(path))
        with open(path) as fh:
            text = strip(fh.read())
        for mod, name in QUALIFIED.findall(text):
            if mod != owner:
                used.add((mod, name))
        opened = {m for m in OPEN.findall(text) + LOCAL_OPEN.findall(text) if m != owner and m in exports}
        if opened:
            bare = set(LOWER.findall(text))
            for mod in opened:
                used.update((mod, v) for v in exports[mod] if v in bare)

    unused = [(mod, v) for mod in sorted(exports) for v in exports[mod] if (mod, v) not in used]
    for mod, v in unused:
        print(f"{mli_of[mod]}: {mod}.{v} has no caller outside its own module")
    if unused:
        print(f"{len(unused)} unused export(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
