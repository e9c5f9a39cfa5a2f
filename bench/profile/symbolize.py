#!/usr/bin/env python3
"""Turn sampler.c's output into a function profile.

    python3 bench/profile/symbolize.py _build/samples.txt [--top N]

Each sampled instruction address is placed in the executable mapping
that holds it (the "maps" lines the sampler copied from /proc/<pid>/maps
while the process ran), turned into the mapped file's own virtual
address through its ELF program headers, and named by the nearest
preceding symbol in `nm -n` (or `nm -D -n` for a stripped library).
Prints one line per function: its samples, its share of all samples and
the file it lives in.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def load_segments(path):
    """PT_LOAD (file offset, vaddr, file size) triples of an ELF64 file."""
    try:
        with open(path, "rb") as f:
            ehdr = f.read(64)
            if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2:
                return []
            endian = "<" if ehdr[5] == 1 else ">"
            phoff, = struct.unpack_from(endian + "Q", ehdr, 32)
            phentsize, phnum = struct.unpack_from(endian + "HH", ehdr, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def load_symbols(path):
    """Sorted (address, name) function symbols of a file, from nm."""
    for flags in (["-n", "--defined-only"], ["-D", "-n", "--defined-only"]):
        try:
            out = subprocess.run(["nm"] + flags + [path], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwWiI":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            syms.sort()
            return syms
    return []


class Mapping:
    def __init__(self, line):
        fields = line.split(None, 5)
        start, end = fields[0].split("-")
        self.start, self.end = int(start, 16), int(end, 16)
        self.offset = int(fields[2], 16)
        self.path = fields[5].strip() if len(fields) > 5 else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=30)
    a = ap.parse_args()
    maps, ips, total_line = [], [], ""
    with open(a.samples) as f:
        for line in f:
            if line.startswith("maps "):
                maps.append(Mapping(line[5:]))
            elif line.startswith("ip "):
                _, ip, n = line.split()
                ips.append((int(ip, 16), int(n)))
            elif line.startswith("total "):
                total_line = line.strip()
    maps.sort(key=lambda m: m.start)
    starts = [m.start for m in maps]
    segs, syms = {}, {}
    by_fn = collections.Counter()
    where = {}
    total = sum(n for _, n in ips)
    for ip, n in ips:
        i = bisect.bisect_right(starts, ip) - 1
        if i < 0 or ip >= maps[i].end:
            by_fn["[unmapped]"] += n
            continue
        m = maps[i]
        if not m.path.startswith("/"):
            by_fn[m.path or "[anon]"] += n
            continue
        if m.path not in segs:
            segs[m.path] = load_segments(m.path)
            syms[m.path] = load_symbols(m.path)
        off = ip - m.start + m.offset
        vaddr = None
        for p_offset, p_vaddr, p_filesz in segs[m.path]:
            if p_offset <= off < p_offset + p_filesz:
                vaddr = off - p_offset + p_vaddr
        table = syms[m.path]
        j = bisect.bisect_right(table, (vaddr, "\xff")) - 1 if vaddr is not None else -1
        name = table[j][1] if j >= 0 else "[%s]" % os.path.basename(m.path)
        by_fn[name] += n
        where[name] = os.path.basename(m.path)
    print("%8s %7s  %s" % ("samples", "share", "function"))
    for name, n in by_fn.most_common(a.top):
        print("%8d %6.1f%%  %s  (%s)" % (n, 100.0 * n / max(1, total), name,
                                         where.get(name, "-")))
    print(total_line or "total %d" % total)


if __name__ == "__main__":
    sys.exit(main())
