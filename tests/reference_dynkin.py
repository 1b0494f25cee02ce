"""The leg-walking Dynkin classifier: the connected components of the simple
diagram, each typed from its edge multiplicities, its degrees and, for a
simply-laced diagram with a branch node, the lengths of the three legs. The
library types a component by its bonds and branch node and checks the
result by the root count (`RootDatum.cartan_type`); the tests compare the
two on every datum they can reach."""


def reference_cartan_type(d):
    """Canonical type string of a datum, e.g. 'B3', 'A1+A1', '0'; a
    ValueError for a diagram of no finite type."""
    if not d.simple_indices:
        return "0"
    c = d.cartan()
    names = [_classify_component(comp, c) for comp in _components(c)]
    names.sort(key=lambda s: (-int(s[1:]), s[0]))
    return "+".join(names)


def _components(c):
    """Connected components of the diagram of the Cartan matrix c, as
    sorted index lists."""
    n = len(c)
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and c[i][j] != 0 and i != j:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _classify_component(comp, c):
    """Type of one connected component of a Cartan matrix."""
    k = len(comp)
    if k == 1:
        return "A1"
    edges = {}
    for a in comp:
        for b in comp:
            if a < b and c[a][b] != 0:
                edges[(a, b)] = c[a][b] * c[b][a]
    mults = sorted(edges.values())
    deg = {a: sum(1 for e in edges if a in e) for a in comp}
    maxdeg = max(deg.values())

    if mults == [1] * (k - 1):
        if maxdeg <= 2:
            return f"A{k}"
        if maxdeg == 3 and sum(1 for d in deg.values() if d == 3) == 1:
            branch = next(a for a, d in deg.items() if d == 3)
            legs = sorted(_leg_lengths(comp, edges, branch))
            if legs == [1, 1, k - 3]:
                return f"D{k}"
            if legs == [1, 2, 2] and k == 6:
                return "E6"
            if legs == [1, 2, 3] and k == 7:
                return "E7"
            if legs == [1, 2, 4] and k == 8:
                return "E8"
        raise ValueError("unrecognized simply-laced diagram")
    if mults[-1] == 3 and k == 2:
        return "G2"
    if mults.count(2) == 1 and all(m in (1, 2) for m in mults) and maxdeg <= 2:
        (a, b), = [e for e, m in edges.items() if m == 2]
        if k == 2:
            return "B2"  # = C2 as an abstract type
        # path: the double edge sits at an end (B/C) or in the middle (F4)
        enda, endb = deg[a] == 1, deg[b] == 1
        if not (enda or endb):
            if k == 4:
                return "F4"
            raise ValueError("double edge strictly inside a long path")
        leaf = a if enda else b
        other = b if enda else a
        # leaf short <=> <alpha_other, alpha_leaf^vee> = -2
        return f"B{k}" if c[leaf][other] == -2 else f"C{k}"
    raise ValueError(f"unrecognized diagram with edge multiplicities {mults}")


def _leg_lengths(comp, edges, branch):
    """Lengths of the legs that leave the branch node, in nodes."""
    adj = {a: [] for a in comp}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    legs = []
    for start in adj[branch]:
        length, prev, cur = 1, branch, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    return legs
