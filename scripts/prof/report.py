#!/usr/bin/env python3
"""Function shares from a sigprof sample file.

    report.py BINARY SAMPLES [--include FRAME]... [--exclude FRAME]... [--top N]

Symbolises the samples' addresses that fall inside BINARY with
`addr2line -f -i -C` (the release profile keeps debug info, so inlined
frames are named too) and prints three tables, each a share of the samples
kept:

  self, by function   the symbol the interrupted instruction belongs to:
                      the outermost frame addr2line gives for the innermost
                      address (what `nm` would say)
  self, by inlined    the innermost inlined frame at that instruction: the
                      source function whose line was executing
  inclusive           every function anywhere on the stack, inlined frames
                      included, once per sample; frames on every kept
                      sample (`main`, the --include frame, ...) say nothing
                      and are left out

--include keeps only samples with a frame containing FRAME (substring of the
demangled name), --exclude drops those with one; both may repeat. Addresses
outside BINARY are named after their mapping, e.g. `[libc.so.6]`.
"""

import argparse
import collections
import os
import subprocess
import sys


def read_samples(path):
    maps, stacks = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                fields = line.split()
                lo, hi = (int(x, 16) for x in fields[1].split("-"))
                name = fields[6] if len(fields) > 6 else "[anon]"
                maps.append((lo, hi, int(fields[3], 16), name))
            elif line.startswith("samples "):
                print("#", line.strip(), file=sys.stderr)
            elif line.strip():
                stacks.append([int(x, 16) for x in line.split()])
    return maps, stacks


def symbolise(binary, vaddrs):
    """{vaddr: [innermost inlined frame, ..., outermost frame]}"""
    if not vaddrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="".join(f"{a:#x}\n" for a in vaddrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, current = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            current.append(out[i])  # function; out[i + 1] is file:line
            i += 2
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--include", action="append", default=[], metavar="FRAME")
    ap.add_argument("--exclude", action="append", default=[], metavar="FRAME")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, stacks = read_samples(args.samples)
    real = os.path.realpath(args.binary)
    ours = [m for m in maps if os.path.realpath(m[3]) == real]
    if not ours:
        sys.exit(f"{args.samples} has no mapping of {args.binary}")
    # A position-independent executable is mapped with its first segment
    # (file offset 0) at the load base; addr2line wants address - base.
    base = min(lo for lo, _, off, _ in ours if off == 0)

    def locate(addr, innermost):
        # A return address points after the call; step back into it.
        addr -= 0 if innermost else 1
        for lo, hi, _, name in maps:
            if lo <= addr < hi:
                inside = os.path.realpath(name) == real
                return (addr - base) if inside else f"[{os.path.basename(name)}]"
        return "[unmapped]"

    located = [[locate(a, i == 0) for i, a in enumerate(s)] for s in stacks if s]
    names = symbolise(real, sorted({a for s in located for a in s if isinstance(a, int)}))

    def frames_of(loc):
        return names.get(loc) or ["??"] if isinstance(loc, int) else [loc]

    self_outer, self_inner, inclusive = (collections.Counter() for _ in range(3))
    kept = 0
    for stack in located:
        expanded = [frames_of(loc) for loc in stack]
        everything = {f for frames in expanded for f in frames}
        if any(not any(want in f for f in everything) for want in args.include):
            continue
        if any(bad in f for f in everything for bad in args.exclude):
            continue
        kept += 1
        self_outer[expanded[0][-1]] += 1
        self_inner[expanded[0][0]] += 1
        inclusive.update(everything)

    print(f"{kept} of {len(located)} samples kept"
          f" (include {args.include or 'all'}, exclude {args.exclude or 'none'})")
    partial = collections.Counter({f: n for f, n in inclusive.items() if n < kept})
    for title, counts in [("self, by function", self_outer),
                          ("self, by innermost inlined frame", self_inner),
                          ("inclusive", partial)]:
        print(f"\n== {title} ==")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / max(kept, 1):6.1f} %  {n:6d}  {name}")


if __name__ == "__main__":
    main()
