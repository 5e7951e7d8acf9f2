#!/usr/bin/env python3
"""Lists library functions that no shipped binary reaches.

    python3 tools/unreached_functions.py BUILD_DIR PERFBENCH_BINARY \
        [--allowlist tools/unreached_allowlist.txt]

BUILD_DIR and the perfbench binary must be built with -ffunction-sections
-fdata-sections and linked with -Wl,--gc-sections, so each binary keeps
only the functions it can reach (without -fdata-sections a switch's jump
table keeps its function alive).  Build perfbench/ with -DNDEBUG even in a
Debug build: its main() returns at once when assertions are on, and the
compiler then drops everything after that return.  A function counts when its mangled name is in namespace
eslurm (`_ZN...6eslurm`) and it is defined in one of BUILD_DIR's src/
libraries.  It is reached when any bench (BUILD_DIR/bench), tool
(BUILD_DIR/tools), example (BUILD_DIR/examples) or the perfbench binary
keeps it.  Destructors are skipped: the compiler emits every variant of
one and a binary keeps only those it calls.

Each allowlist line is "<demangled name> -- <reason>"; the name matches a
function's demangled signature (ABI tags dropped), or its qualified name
when it has no parameter list.  Blank lines and '#' lines are skipped.
Prints every unreached function that no entry names, and every entry that
names no unreached function; exits 1 if there is either, 0 otherwise.
"""
import argparse
import os
import re
import subprocess
import sys

ESLURM_FUNCTION = re.compile(r"^_ZN[A-Z]*6eslurm")
BINARY_DIRS = ("bench", "tools", "examples")


def defined_functions(path):
    """Mangled names of the text symbols `path` defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "TtWw" and ESLURM_FUNCTION.match(fields[2]):
            names.add(fields[2])
    return names


def demangle(names):
    """Mangled name -> demangled signature, without ABI tags."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return {name: signature.replace("[abi:cxx11]", "")
            for name, signature in zip(names, out.splitlines())}


def executables(directory):
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            yield path


def read_allowlist(path):
    entries = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" -- ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: expected '<name> -- <reason>'")
            entries[name.strip()] = reason.strip()
    return entries


def allowed_by(entry, signature):
    return signature == entry or signature.startswith(entry + "(")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    parser.add_argument("perfbench_binary")
    parser.add_argument("--allowlist")
    args = parser.parse_args()

    libraries = []
    for root, _, files in os.walk(os.path.join(args.build_dir, "src")):
        libraries += [os.path.join(root, f) for f in files if f.endswith(".a")]
    if not os.path.isfile(args.perfbench_binary):
        sys.exit(f"no perfbench binary at {args.perfbench_binary}")
    binaries = [args.perfbench_binary]
    for directory in BINARY_DIRS:
        binaries += executables(os.path.join(args.build_dir, directory))
    if not libraries or len(binaries) == 1:
        sys.exit(f"no libraries or binaries under {args.build_dir}")

    defined = set().union(*(defined_functions(path) for path in libraries))
    kept = set().union(*(defined_functions(path) for path in binaries))
    signatures = demangle(defined)
    reached = {signatures[name] for name in defined & kept}
    unreached = sorted({signatures[name] for name in defined - kept} - reached)
    unreached = [s for s in unreached if "::~" not in s]

    allowlist = read_allowlist(args.allowlist) if args.allowlist else {}
    used = set()
    failures = 0
    for signature in unreached:
        entry = next((e for e in allowlist if allowed_by(e, signature)), None)
        if entry is None:
            print(f"unreached: {signature}")
            failures += 1
        else:
            used.add(entry)
            print(f"allowlisted: {signature}")
    for entry in allowlist:
        if entry not in used:
            print(f"stale allowlist entry (reached or gone): {entry}")
            failures += 1
    print(f"{len(defined)} eslurm functions in {len(libraries)} libraries, "
          f"{len(binaries)} binaries; {len(unreached)} unreached, "
          f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
