"""The one caching rule of the library.

A structure is cached on the object that owns it, in the owner's `derived`
dict, and only after its checks passed: `cached` stores a value once its
build has returned, so a build that raises (a failed check) stores nothing
and raises again on the next call. Each entry of a `derived` dict is one
structure, keyed by its name, or for a family of structures by a tuple
tagged with the family's name, e.g. ("orbit_sum", t, x).

Three sites store one value under several keys and write `derived`
themselves: `FiniteLieGroup.adjoint_orbit_of` (one orbit under each of its
points), `endoscopy._elliptic_triple` (one triple under each node of its
center orbit) and `root_datum._build_dual` (the dual's link back to the
datum).
"""


def cached(owner, key, build):
    """owner.derived[key], made by build(owner) on first use."""
    derived = owner.derived
    try:
        return derived[key]
    except KeyError:
        pass
    value = derived[key] = build(owner)
    return value
