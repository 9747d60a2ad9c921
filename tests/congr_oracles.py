"""Slow, independent congruence oracles shared by the test modules.

Each one reads only a carrier's tables and shares no code with
supertrop.congr, so the library's lattice and closure can be checked
against them.  All return least-representative tuples (reps).
"""


def all_partition_reps(n: int):
    """Least-representative tuples of every partition of range(n)."""
    out = []

    def grow(rgs: list[int]):
        if len(rgs) == n:
            first = {}
            rep = []
            for i, cls in enumerate(rgs):
                first.setdefault(cls, i)
                rep.append(first[cls])
            out.append(tuple(rep))
            return
        top = max(rgs) if rgs else -1
        for cls in range(top + 2):
            grow(rgs + [cls])

    grow([])
    return out


def brute_congruences(R):
    """Every partition compatible with both tables, by a Bell(n) scan."""
    reps_list = []
    rng_n = range(R.size)
    for rep in all_partition_reps(R.size):
        ok = True
        for a in rng_n:
            for b in rng_n:
                if rep[a] != rep[b]:
                    continue
                for c in rng_n:
                    if (
                        rep[R.add(a, c)] != rep[R.add(b, c)]
                        or rep[R.mul(a, c)] != rep[R.mul(b, c)]
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            reps_list.append(rep)
    return reps_list


def pruned_congruences(R):
    """The same set as brute_congruences, by a partition search that
    drops a branch once two elements placed in one block have placed
    translates in different blocks.  Fast enough for 13 elements."""
    n = R.size
    tables = (R.add_table, R.mul_table)
    block = [-1] * n
    out = []

    def consistent(i: int) -> bool:
        for a in range(i + 1):
            for b in range(a + 1, i + 1):
                if block[a] != block[b]:
                    continue
                for t in tables:
                    for x, y in zip(t[a], t[b]):
                        if x <= i and y <= i and block[x] != block[y]:
                            return False
        return True

    def grow(i: int, top: int):
        if i == n:
            first = {}
            out.append(tuple(first.setdefault(block[k], k) for k in range(n)))
            return
        for b in range(top + 2):
            block[i] = b
            if consistent(i):
                grow(i + 1, max(top, b))
        block[i] = -1

    grow(0, -1)
    return sorted(out)


def fixpoint_closure(R, pairs):
    """Least congruence holding the pairs: union-find plus full passes
    over every class until a pass merges nothing."""
    parent = list(range(R.size))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        groups: dict[int, list[int]] = {}
        for i in range(R.size):
            groups.setdefault(find(i), []).append(i)
        for members in groups.values():
            base = members[0]
            for b in members[1:]:
                for c in range(R.size):
                    changed |= union(R.add(base, c), R.add(b, c))
                    changed |= union(R.mul(base, c), R.mul(b, c))
    return tuple(find(i) for i in range(R.size))


def partition_join(x, y):
    """Reps of the finest partition coarser than both x and y."""
    n = len(x)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for rel in (x, y):
            for i in range(n):
                low = min(label[i], label[rel[i]])
                if label[i] != low or label[rel[i]] != low:
                    label[i] = label[rel[i]] = low
                    changed = True
    first = {}
    return tuple(first.setdefault(label[i], i) for i in range(n))
