#!/usr/bin/env python3
"""Compares two BENCH_<name>.json files row by row.

Every value present in the first (reference) file must appear with the
same value in the second. Wall-clock keys are skipped: they are host
timings, not simulation output. Keys only the second file has are listed
but are not differences.

    python3 tools/compare_bench_json.py OLD.json NEW.json \
        [--rename old_key=new_key ...]

Exits 1 when a compared value differs or a row is missing, else 0.
"""

import argparse
import collections
import json
import sys

WALL_KEYS = {"wall_seconds", "total_sim_wall_seconds"}


def leaves(value, path=()):
    """Yields (path, leaf) for every scalar in nested dicts and lists."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from leaves(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from leaves(child, path + (index,))
    else:
        yield path, value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rename", action="append", default=[],
                        help="old_key=new_key: the key's name in NEW")
    args = parser.parse_args()
    renames = dict(r.split("=", 1) for r in args.rename)

    with open(args.old) as f:
        old = dict(leaves(json.load(f)))
    with open(args.new) as f:
        new = dict(leaves(json.load(f)))

    def renamed(path):
        return tuple(renames.get(p, p) if isinstance(p, str) else p
                     for p in path)

    compared = 0
    differing = collections.defaultdict(list)
    missing = []
    for path, value in old.items():
        if path[-1] in WALL_KEYS:
            continue
        target = renamed(path)
        if target not in new:
            missing.append(path)
            continue
        compared += 1
        if new[target] != value:
            differing[path[-1]].append((path, value, new[target]))
    added = collections.Counter(
        p[-1] for p in new.keys() - {renamed(p) for p in old}
        if p[-1] not in WALL_KEYS)

    print(f"{args.old} vs {args.new}: {compared} values compared")
    for key, diffs in sorted(differing.items()):
        print(f"  DIFFERS {key}: {len(diffs)} value(s)")
        for path, was, now in diffs[:5]:
            print(f"    {'/'.join(map(str, path))}: {was} -> {now}")
    for path in missing[:10]:
        print(f"  MISSING {'/'.join(map(str, path))}")
    if len(missing) > 10:
        print(f"  ... {len(missing) - 10} more missing")
    if added:
        print("  new keys: " + ", ".join(
            f"{k} ({n})" for k, n in sorted(added.items())))
    if not differing and not missing:
        print("  every compared value is identical")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
