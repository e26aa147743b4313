#!/usr/bin/env python3
"""Symbolizes the stack samples written by tools/sampler.c.

    python3 tools/profile.py [--top 25] [--match TEXT] FILE [FILE ...]

Each FILE is one process's output ($DPN_SAMPLER_OUT.<pid>): one
"sample <pc> <return address>..." line per sample, then "maps" and the
process's /proc/self/maps.  Give every file of a run (perfbench forks one
child per round) to count the whole run.

Addresses are mapped to (object file, ELF address) through the maps and
the file's PT_LOAD headers, then resolved in one `addr2line -a -f -i -C`
call per object, so inlined frames count as frames of their own.  Return
addresses are looked up one byte back, at the call instruction.  Where
addr2line finds no line (a stripped library) its name is only the
nearest symbol below the address, so the symbol from `nm -S` or
`nm -D -S` whose extent holds the address names the frame instead; an
address past every symbol's end (a static function) prints as
`?? (<lib>)`.

Prints three tables, each as a share of all samples:
  * self by line: the innermost (inlined) frame with a source line,
    outside library headers under /usr/, so an inlined std::atomic
    operation counts on the line that called it, and a stripped
    library's frame on the caller's line;
  * self by function: the innermost function;
  * inclusive by function: samples with the function anywhere on the
    stack, counted once per sample.
`--match TEXT` prints only rows whose name contains TEXT.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys


def read_file(path):
    """Returns (samples as lists of int addresses, [(lo, hi, off, file)])."""
    samples, maps = [], []
    in_maps = False
    with open(path, errors="replace") as f:
        for line in f:
            if not in_maps:
                if line.startswith("sample"):
                    samples.append([int(a, 16) for a in line.split()[1:]])
                elif line.startswith("maps"):
                    in_maps = True
                continue
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    return samples, maps


def load_segments(path, cache={}):
    """PT_LOAD (offset, vaddr, filesz) triples of an ELF file."""
    if path not in cache:
        segments = []
        try:
            with open(path, "rb") as f:
                head = f.read(64)
                if head[:4] == b"\x7fELF" and head[4] == 2:
                    phoff, = struct.unpack_from("<Q", head, 32)
                    phentsize, phnum = struct.unpack_from("<HH", head, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        kind, _, off, vaddr, _, filesz = struct.unpack_from(
                            "<IIQQQQ", table, i * phentsize)
                        if kind == 1:
                            segments.append((off, vaddr, filesz))
        except OSError:
            pass
        cache[path] = segments
    return cache[path]


def locate(addr, maps):
    """(object file, ELF virtual address) of a runtime address, or None."""
    for lo, hi, off, path in maps:
        if lo <= addr < hi:
            file_off = addr - lo + off
            for seg_off, vaddr, filesz in load_segments(path):
                if seg_off <= file_off < seg_off + filesz:
                    return path, file_off - seg_off + vaddr
            return path, file_off
    return None


def sized_symbols(path, cache={}):
    """Sorted starts, and (start, end, name), of the symbols with a size."""
    if path not in cache:
        syms = set()
        for table in ([], ["-D"]):  # the symbol table, if not stripped
            out = subprocess.run(["nm", *table, "-S", "--defined-only", path],
                                 capture_output=True, text=True).stdout
            syms.update((int(p[0], 16), int(p[0], 16) + int(p[1], 16), p[3])
                        for p in (line.split() for line in out.splitlines())
                        if len(p) == 4)
        syms = sorted(syms)
        cache[path] = ([start for start, _, _ in syms], syms)
    return cache[path]


def symbol_name(path, addr):
    """`symbol+offset` of the sized symbol holding `addr`, or None."""
    starts, syms = sized_symbols(path)
    k = bisect.bisect_right(starts, addr) - 1
    # Symbols may nest or alias: look back a little for one that holds it.
    for start, end, name in reversed(syms[max(0, k - 7):k + 1]):
        if start <= addr < end:
            return f"{name}+{addr - start:#x}"
    return None


def has_line(loc):
    """True for an addr2line location with a line number in our code."""
    return loc != "(system)" and not loc.endswith((":?", ":0"))


def symbolize(path, addrs):
    """{address: [(function, file:line), ...] innermost first}."""
    addrs = sorted(addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path] +
        [hex(a) for a in addrs], capture_output=True, text=True).stdout
    result, current, lines = {}, None, out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            result[current] = []
            i += 1
            continue
        func = lines[i]
        loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
        loc = loc.split(" (discriminator")[0]
        if loc.startswith("/usr/"):
            loc = "(system)"  # a library header's inline frame
        result[current].append((func, loc.rsplit("/", 1)[-1]))
        i += 2
    base = path.rsplit("/", 1)[-1]
    for addr, frames in result.items():
        if all(loc.startswith("??") for _, loc in frames):
            name = symbol_name(path, addr) or "??"
            result[addr] = [(f"{name} ({base})", f"{base}:?")]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--match", default="")
    args = parser.parse_args()

    stacks = []  # per sample: [(object, elf address)]
    for path in args.files:
        samples, maps = read_file(path)
        located = {}
        for raw in samples:
            frames = []
            for depth, addr in enumerate(raw):
                # Frames past the first are return addresses.
                addr = addr if depth == 0 else addr - 1
                if addr not in located:
                    located[addr] = locate(addr, maps) or ("?", addr)
                frames.append(located[addr])
            stacks.append(frames)
    if not stacks:
        sys.exit("no samples")

    wanted = collections.defaultdict(set)
    for frames in stacks:
        for obj, addr in frames:
            wanted[obj].add(addr)
    names = {}
    for obj, addrs in wanted.items():
        if obj == "?" or obj.startswith("["):
            continue
        for addr, frames in symbolize(obj, addrs).items():
            names[(obj, addr)] = frames

    self_line = collections.Counter()
    self_func = collections.Counter()
    inclusive = collections.Counter()
    for frames in stacks:
        expanded = []
        for key in frames:
            expanded.extend(names.get(key, [(f"?? ({key[0]})", "??:0")]))
        self_func[expanded[0][0]] += 1
        own = next((f for f in expanded if has_line(f[1])), expanded[0])
        self_line[f"{own[1]} {own[0]}"] += 1
        for func in {f for f, _ in expanded}:
            inclusive[func] += 1

    total = len(stacks)
    print(f"{total} samples from {len(args.files)} file(s)")
    for title, counter in (("self by line", self_line),
                           ("self by function", self_func),
                           ("inclusive by function", inclusive)):
        print(f"\n{title}:")
        rows = [(n, c) for n, c in counter.most_common()
                if args.match in n][:args.top]
        for name, count in rows:
            print(f"  {100.0 * count / total:6.2f}%  {count:7d}  {name}")


if __name__ == "__main__":
    main()
