#!/usr/bin/env python3
"""Checks that AVX2 / AVX-512 code stays behind the kernel dispatch.

    check_isa_leak.py --build-dir build build/tools/mpsort build/tests/test_kernels
    check_isa_leak.py --isa-object merge_avx2.cpp.o --isa-object merge_avx512.cpp.o BIN...

The per-ISA merge TUs (src/kernels/merge_avx2.cpp, merge_avx512.cpp) are
compiled with -mavx2 / -mavx512f -mavx512bw and reached only after the
cpuid probe. An inline function or template with external linkage that
one of them instantiates is a vague-linkage (weak) copy compiled with
those flags, and the linker may pick that copy for the whole program: a
host without the ISA then faults in code that never went through dispatch.
Two checks:

  1. Every ISA object defines global or weak text symbols only for its own
     entry points (mp::kernels::detail::<isa>_*); everything else it
     instantiates must have internal linkage.
  2. In every binary, a function that uses a ymm or zmm register (or an
     AVX-512 mask or upper xmm register) is one the ISA objects define.

Exits 1 listing the offenders, 0 when both hold. Needs binutils (nm,
objdump) and an x86-64 build; on other hosts, or when no ISA object was
built, it prints a notice and exits 0.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

ISA_SOURCES = ("merge_avx2.cpp", "merge_avx512.cpp")
# Mangled mp::kernels::detail::<isa>_<name>: the exported entry points.
ENTRY = re.compile(r"^_ZN2mp7kernels6detail\d+(?:sse4|avx2|avx512)_")
# Registers that only AVX / AVX2 / AVX-512 code touches.
WIDE_REG = re.compile(r"%(?:[yz]mm\d+|k[1-7]\b|xmm(?:1[6-9]|2\d|3[01])\b)")
FUNC = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def fail(msg):
    print(f"check_isa_leak: {msg}", file=sys.stderr)


def run(cmd):
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)}: {done.stderr.strip()}")
    return done.stdout


def text_symbols(obj):
    """(all defined text symbols, the global or weak ones) of an object."""
    defined, exported = set(), set()
    for line in run(["nm", "--defined-only", str(obj)]).splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[1] not in "TtWw":
            continue
        defined.add(parts[2])
        if parts[1] in "TWw":
            exported.add(parts[2])
    return defined, exported


def wide_functions(binary):
    """Names of the functions in `binary` that use a wide register."""
    found, current = set(), None
    out = run(["objdump", "-d", "--no-show-raw-insn", str(binary)])
    for line in out.splitlines():
        head = FUNC.match(line)
        if head:
            current = head.group(1)
        elif current and WIDE_REG.search(line):
            found.add(current)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binaries", nargs="+", type=Path)
    parser.add_argument("--isa-object", action="append", type=Path,
                        default=[], help="an ISA object file (repeatable)")
    parser.add_argument("--build-dir", type=Path,
                        help="find the ISA objects under this build tree")
    args = parser.parse_args()

    objects = list(args.isa_object)
    if args.build_dir:
        for source in ISA_SOURCES:
            objects += sorted(args.build_dir.rglob(f"{source}.o"))
    if not objects:
        print("check_isa_leak: no AVX2/AVX-512 object built; nothing to check")
        return 0

    owned, bad = set(), []
    for obj in objects:
        defined, exported = text_symbols(obj)
        leaked = {s for s in exported if not ENTRY.match(s)}
        owned |= defined - leaked
        bad += [f"{obj.name}: exports {s} (give it internal linkage)"
                for s in sorted(leaked)]
    for binary in args.binaries:
        bad += [f"{binary}: {name} uses wide registers outside the ISA TUs"
                for name in sorted(wide_functions(binary) - owned)]
    for line in bad:
        fail(line)
    if bad:
        return 1
    print(f"check_isa_leak: {len(args.binaries)} binaries, "
          f"{len(objects)} ISA objects: no leak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
