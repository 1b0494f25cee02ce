"""The one caching rule of the library.

A structure is cached on the object that owns it, in the owner's `derived`
dict, and only after its checks passed: `cached` stores a value once its
build has returned, so a build that raises (a failed check) stores nothing
and raises again on the next call. Each entry of a `derived` dict is one
structure, keyed by its name, or for a family of structures by a tuple
tagged with the family's name, e.g. ("orbit_sum", orbit[0], x). Nothing
else reads or writes `derived`: a structure looked up by any of several
keys, such as an adjoint orbit by any of its points, is one entry that maps
each key to it.
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
